//! Bus models beyond the PLB.
//!
//! The remaining pseudo-asynchronous interconnects (OPB, FCB, AHB,
//! Wishbone, Avalon) share the request/acknowledge shape of the PLB —
//! §4.3.2 observes that "the vast majority of interfaces in use today tend
//! to employ protocols that are functionally equivalent to one another" —
//! so they reuse the PLB master/adapter pair with their own bridge stalls
//! and (for the FCB) direct function-id addressing instead of
//! memory-mapped decode, both read from the bus's
//! [`BusCaps`](splice_spec::bus::BusCaps).
//!
//! The strictly synchronous AMBA APB is genuinely different (§4.2.2): no
//! per-beat acknowledge exists, so it gets its own [`ApbMaster`] /
//! [`ApbAdapter`] pair with fixed-schedule completion and CALC_DONE
//! polling.

use crate::plb::{channel, ChannelHandle, PlbCpuMaster, PlbSignals, PlbSisAdapter};
use crate::timing::{cpu_to_bus, REQUEST_CYCLES};
use splice_driver::program::BusOp;
use splice_sim::{Component, Sensitivity, SignalDecl, SignalId, SimulatorBuilder, TickCtx, Word};
use splice_sis::SisBus;
use splice_spec::validate::ModuleParams;

/// The native APB signal bundle (AMBA 2 nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApbSignals {
    /// Peripheral address.
    pub paddr: SignalId,
    /// Select.
    pub psel: SignalId,
    /// Enable (second cycle of the APB two-phase transfer).
    pub penable: SignalId,
    /// Direction: 1 = write.
    pub pwrite: SignalId,
    /// Write data.
    pub pwdata: SignalId,
    /// Read data.
    pub prdata: SignalId,
}

impl ApbSignals {
    /// Declare an APB with `width`-bit data paths.
    pub fn declare(b: &mut SimulatorBuilder, prefix: &str, width: u32) -> Self {
        let n = |s: &str| format!("{prefix}{s}");
        ApbSignals {
            paddr: b.signal(SignalDecl::new(n("PADDR"), 32)),
            psel: b.signal(SignalDecl::new(n("PSEL"), 1)),
            penable: b.signal(SignalDecl::new(n("PENABLE"), 1)),
            pwrite: b.signal(SignalDecl::new(n("PWRITE"), 1)),
            pwdata: b.signal(SignalDecl::new(n("PWDATA"), width)),
            prdata: b.signal(SignalDecl::new(n("PRDATA"), width)),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum AmState {
    Fetch,
    Issue {
        remaining: u32,
        op: Box<BusOp>,
    },
    /// Setup phase asserted; enable phase follows.
    Enable {
        is_read: bool,
        remaining_reads: u32,
    },
    /// Enable phase held for its cycle; the transfer commits next edge.
    Commit {
        is_read: bool,
        remaining_reads: u32,
    },
    /// Fixed read-return schedule: the registered-model stand-in for the
    /// APB's same-cycle combinational response.
    AwaitData {
        remaining: u32,
        poll: Option<(u64, u32)>,
    },
    Busy {
        remaining: u32,
    },
    /// Sleeping until a completion interrupt.
    WaitIrq {
        bit: u32,
        ack_pending: bool,
    },
    Done,
}

/// APB bus master: strictly synchronous — "devices attached to the
/// interface are not allowed to pause the bus" (§2.3.1), so every transfer
/// completes on a fixed schedule and result readiness is discovered by
/// polling the status register through [`BusOp::Poll`].
pub struct ApbMaster {
    sig: ApbSignals,
    /// Bus cycles each request and each response spends crossing the
    /// AHB→APB bridge ([`BusCaps::bridge_latency`](splice_spec::bus::BusCaps)).
    bridge_latency: u32,
    /// Interrupt vector + acknowledge strobe (`%irq_support`).
    irq: Option<(SignalId, SignalId)>,
    ops: Vec<BusOp>,
    pc: usize,
    state: AmState,
    /// Captured read data in op order.
    pub reads: Vec<Word>,
    /// Completion cycle.
    pub finished_cycle: Option<u64>,
    /// Native transfers issued.
    pub bus_txns: u64,
    /// Cycle the outstanding transfer began (for latency histograms).
    req_start: Option<u64>,
}

impl ApbMaster {
    /// Create a master for one driver call behind a bridge of
    /// `bridge_latency` cycles each way.
    pub fn new(sig: ApbSignals, bridge_latency: u32, ops: Vec<BusOp>) -> Self {
        ApbMaster {
            sig,
            bridge_latency,
            irq: None,
            ops,
            pc: 0,
            state: AmState::Fetch,
            reads: Vec::new(),
            finished_cycle: None,
            bus_txns: 0,
            req_start: None,
        }
    }

    /// True once the op list is exhausted.
    pub fn is_finished(&self) -> bool {
        self.finished_cycle.is_some()
    }

    /// Connect the completion-interrupt vector and acknowledge strobe.
    pub fn with_irq(mut self, vector: SignalId, ack: SignalId) -> Self {
        self.irq = Some((vector, ack));
        self
    }

    /// Reset with a fresh op list for the next driver call.
    pub fn reload(&mut self, ops: Vec<BusOp>) {
        self.ops = ops;
        self.pc = 0;
        self.state = AmState::Fetch;
        self.reads.clear();
        self.finished_cycle = None;
        self.req_start = None;
    }

    fn idle(&self, ctx: &mut TickCtx<'_>) {
        ctx.set_bool(self.sig.psel, false);
        ctx.set_bool(self.sig.penable, false);
        ctx.set_bool(self.sig.pwrite, false);
    }

    fn next_op(&mut self, cycle: u64) {
        self.pc += 1;
        if self.pc >= self.ops.len() {
            self.finished_cycle = Some(cycle);
            self.state = AmState::Done;
        } else {
            self.state = AmState::Fetch;
        }
    }

    fn setup(&mut self, ctx: &mut TickCtx<'_>, addr: u64, write: Option<Word>) {
        ctx.set(self.sig.paddr, addr);
        ctx.set_bool(self.sig.psel, true);
        match write {
            Some(d) => {
                ctx.set_bool(self.sig.pwrite, true);
                ctx.set(self.sig.pwdata, d);
            }
            None => ctx.set_bool(self.sig.pwrite, false),
        }
        self.bus_txns += 1;
        self.req_start = Some(ctx.cycle());
        ctx.metric_add("apb.master.txns", 1);
        if ctx.metrics_enabled() {
            ctx.protocol_event(
                "apb-master",
                if write.is_some() { "setup_write" } else { "setup_read" },
                format!("addr=0x{addr:x}"),
            );
        }
    }

    /// A transfer just committed (write) or returned data (read): record
    /// its setup→completion latency.
    fn observe_done(&mut self, ctx: &mut TickCtx<'_>) {
        if let Some(start) = self.req_start.take() {
            let delta = ctx.cycle() - start;
            ctx.metric_observe("apb.master.req_ack_latency", delta);
        }
    }

    /// Fixed read-return latency: request crosses the bridge, the SIS
    /// round-trip, and comes back.
    fn read_latency(&self) -> u32 {
        3 + 2 * self.bridge_latency
    }
}

impl Component for ApbMaster {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle();
        match std::mem::replace(&mut self.state, AmState::Done) {
            AmState::Fetch => {
                let Some(op) = self.ops.get(self.pc).cloned() else {
                    self.idle(ctx);
                    if self.finished_cycle.is_none() {
                        self.finished_cycle = Some(cycle);
                    }
                    return;
                };
                self.idle(ctx);
                let remaining = REQUEST_CYCLES + self.bridge_latency;
                self.state = AmState::Issue { remaining, op: Box::new(op) };
            }
            AmState::Issue { remaining, op } => {
                if remaining <= 1 {
                    self.dispatch(ctx, *op);
                } else {
                    self.state = AmState::Issue { remaining: remaining - 1, op };
                }
            }
            AmState::Enable { is_read, remaining_reads } => {
                // Second phase of the APB transfer: PSEL stays, PENABLE
                // rises for exactly one cycle.
                ctx.set_bool(self.sig.penable, true);
                self.state = AmState::Commit { is_read, remaining_reads };
            }
            AmState::Commit { is_read, remaining_reads } => {
                if is_read {
                    self.idle(ctx);
                    self.state = AmState::AwaitData {
                        remaining: self.read_latency(),
                        poll: if remaining_reads > 0 {
                            // encoded poll: remaining_reads = bit + 1
                            Some((ctx.get(self.sig.paddr), remaining_reads - 1))
                        } else {
                            None
                        },
                    };
                } else {
                    // Writes complete in the enable cycle: no wait states.
                    self.observe_done(ctx);
                    self.idle(ctx);
                    self.next_op(cycle);
                }
            }
            AmState::AwaitData { remaining, poll } => {
                if remaining <= 1 {
                    let data = ctx.get(self.sig.prdata);
                    self.observe_done(ctx);
                    self.idle(ctx);
                    match poll {
                        Some((addr, bit)) => {
                            if (data >> bit) & 1 == 1 {
                                self.next_op(cycle);
                            } else {
                                // Poll again: a fresh APB read transfer.
                                ctx.metric_add("apb.master.poll_reads", 1);
                                self.setup(ctx, addr, None);
                                self.state =
                                    AmState::Enable { is_read: true, remaining_reads: bit + 1 };
                            }
                        }
                        None => {
                            self.reads.push(data);
                            self.next_op(cycle);
                        }
                    }
                } else {
                    ctx.metric_add("apb.master.wait_cycles", 1);
                    self.state = AmState::AwaitData { remaining: remaining - 1, poll };
                }
            }
            AmState::Busy { remaining } => {
                ctx.metric_add("apb.master.busy_cycles", 1);
                if remaining <= 1 {
                    self.next_op(cycle);
                } else {
                    self.state = AmState::Busy { remaining: remaining - 1 };
                }
            }
            AmState::WaitIrq { bit, ack_pending } => {
                let (vector, ack) = self.irq.expect("irq wired");
                if ack_pending {
                    ctx.set_bool(ack, false);
                    self.next_op(cycle);
                } else if (ctx.get(vector) >> bit) & 1 == 1 {
                    ctx.set_bool(ack, true);
                    self.state = AmState::WaitIrq { bit, ack_pending: true };
                } else {
                    self.state = AmState::WaitIrq { bit, ack_pending: false };
                }
            }
            AmState::Done => {
                self.idle(ctx);
            }
        }
        // Self-clocked: the fixed-schedule APB machine counts its
        // `remaining` cycles down one tick at a time, so it re-arms a
        // one-cycle wake in every active state and sleeps once the op list
        // is done. Ticking every active cycle is also what keeps its
        // per-tick wait/busy counters exact. The early return on op-list
        // exhaustion above deliberately skips this.
        if !matches!(self.state, AmState::Done) {
            ctx.wake_after(1);
        }
    }

    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Signals(Vec::new())
    }

    fn name(&self) -> &str {
        "apb-master"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl ApbMaster {
    fn dispatch(&mut self, ctx: &mut TickCtx<'_>, op: BusOp) {
        match op {
            BusOp::Write { addr, data } => {
                self.setup(ctx, addr, Some(data));
                self.state = AmState::Enable { is_read: false, remaining_reads: 0 };
            }
            BusOp::Read { addr } => {
                self.setup(ctx, addr, None);
                self.state = AmState::Enable { is_read: true, remaining_reads: 0 };
            }
            BusOp::Poll { addr, bit } => {
                self.setup(ctx, addr, None);
                self.state = AmState::Enable { is_read: true, remaining_reads: bit + 1 };
            }
            BusOp::WriteBurst { addr, data } => {
                // The APB has no bursts; the driver generator never emits
                // them for it, but lower defensively to singles.
                let mut rest: Vec<BusOp> =
                    data.into_iter().map(|d| BusOp::Write { addr, data: d }).collect();
                let first = rest.remove(0);
                let tail_at = self.pc + 1;
                for (k, op) in rest.into_iter().enumerate() {
                    self.ops.insert(tail_at + k, op);
                }
                self.dispatch(ctx, first);
            }
            BusOp::ReadBurst { addr, beats } => {
                let tail_at = self.pc + 1;
                for k in 0..beats.saturating_sub(1) {
                    self.ops.insert(tail_at + k as usize, BusOp::Read { addr });
                }
                self.dispatch(ctx, BusOp::Read { addr });
            }
            BusOp::WaitHandshake => {
                // Should not appear for a strictly synchronous bus; treat
                // as a no-op.
                self.idle(ctx);
                self.next_op(ctx.cycle());
            }
            BusOp::DmaWrite { .. } | BusOp::DmaRead { .. } => {
                unreachable!("validation rejects DMA on the APB")
            }
            BusOp::WaitIrq { bit } => {
                self.idle(ctx);
                assert!(self.irq.is_some(), "WaitIrq op on a system without %irq_support");
                self.state = AmState::WaitIrq { bit, ack_pending: false };
            }
            BusOp::Compute { cpu_cycles } => {
                self.idle(ctx);
                let bus = cpu_to_bus(cpu_cycles);
                if bus == 0 {
                    self.next_op(ctx.cycle());
                } else {
                    self.state = AmState::Busy { remaining: bus };
                }
            }
        }
    }
}

/// APB→SIS adapter: forwards writes immediately (no handshake — strictly
/// synchronous slaves must accept in the presented cycle) and pipelines
/// read requests, including the id-0 status reads the polling protocol
/// relies on.
pub struct ApbAdapter {
    sig: ApbSignals,
    sis: SisBus,
    base_addr: u64,
    word_bytes: u64,
    lower_enable: bool,
    prev_req: bool,
    /// SIS beats moved (diagnostics).
    pub sis_beats: u64,
}

impl ApbAdapter {
    /// Create an adapter decoding against `base_addr`.
    pub fn new(sig: ApbSignals, sis: SisBus, base_addr: u64, bus_width: u32) -> Self {
        ApbAdapter {
            sig,
            sis,
            base_addr,
            word_bytes: (bus_width / 8) as u64,
            lower_enable: false,
            prev_req: false,
            sis_beats: 0,
        }
    }

    fn func_id_of(&self, addr: u64) -> Word {
        addr.saturating_sub(self.base_addr) / self.word_bytes
    }
}

impl Component for ApbAdapter {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.lower_enable {
            ctx.set_bool(self.sis.io_enable, false);
            ctx.set_bool(self.sis.data_in_valid, false);
            self.lower_enable = false;
        }
        // Route any SIS response onto PRDATA continuously.
        if ctx.get_bool(self.sis.data_out_valid) {
            ctx.set(self.sig.prdata, ctx.get(self.sis.data_out));
        }
        // Status vector is also continuously visible for id-0 responses —
        // the arbiter serves those over the SIS itself.

        let req = ctx.get_bool(self.sig.psel) && ctx.get_bool(self.sig.penable);
        let new_req = req && !self.prev_req;
        self.prev_req = req;
        if new_req {
            let func_id = self.func_id_of(ctx.get(self.sig.paddr));
            if ctx.get_bool(self.sig.pwrite) {
                ctx.set(self.sis.data_in, ctx.get(self.sig.pwdata));
                ctx.set_bool(self.sis.data_in_valid, true);
                ctx.set(self.sis.func_id, func_id);
                ctx.set_bool(self.sis.io_enable, true);
                self.lower_enable = true;
                self.sis_beats += 1;
                ctx.metric_add("apb.adapter.sis_beats", 1);
            } else {
                ctx.set_bool(self.sis.data_in_valid, false);
                ctx.set(self.sis.func_id, func_id);
                ctx.set_bool(self.sis.io_enable, true);
                self.lower_enable = true;
                self.sis_beats += 1;
                ctx.metric_add("apb.adapter.sis_beats", 1);
            }
        }
    }

    fn sensitivity(&self) -> Sensitivity {
        // PSEL/PENABLE edges are exactly the points where the request edge
        // detector can change; the SIS response lines route onto PRDATA,
        // and the adapter's own IO_ENABLE strobe wakes it for the tick that
        // lowers it again.
        Sensitivity::Signals(vec![
            self.sig.psel,
            self.sig.penable,
            self.sis.data_out_valid,
            self.sis.data_out,
            self.sis.io_enable,
        ])
    }

    fn name(&self) -> &str {
        "apb-sis-adapter"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------

/// A pseudo-asynchronous system built from the PLB component pair, with a
/// bus's bridge stall and addressing (OPB, FCB, AHB, Wishbone, Avalon).
pub struct PseudoAsyncSystem {
    /// Native signal bundle.
    pub signals: PlbSignals,
    /// Bulk channel.
    pub chan: ChannelHandle,
    /// Adapter component index.
    pub adapter: usize,
}

impl PseudoAsyncSystem {
    /// Instantiate adapter-side hardware for the pseudo-asynchronous bus of
    /// `params`: its bridge hops become adapter-side wait cycles, and a bus
    /// that is not memory-mapped (the opcode-coupled FCB) addresses the
    /// function id itself.
    pub fn attach(
        b: &mut SimulatorBuilder,
        prefix: &str,
        sis: SisBus,
        params: &ModuleParams,
    ) -> Self {
        let signals = PlbSignals::declare(b, prefix, params.bus_width);
        let chan = channel();
        let mapped = params.bus.memory_mapped;
        let mut adapter = PlbSisAdapter::new(
            signals,
            sis,
            std::rc::Rc::clone(&chan),
            if mapped { params.base_address } else { 0 },
            params.bus_width,
        );
        if !mapped {
            adapter = adapter.with_direct_addressing();
        }
        adapter = adapter.with_stall(params.bus.bridge_latency);
        let adapter_idx = b.component(Box::new(adapter));
        PseudoAsyncSystem { signals, chan, adapter: adapter_idx }
    }

    /// Create the matching CPU master for one driver call.
    pub fn master(&self, ops: Vec<BusOp>) -> PlbCpuMaster {
        PlbCpuMaster::new(self.signals, std::rc::Rc::clone(&self.chan), ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::elaborate::elaborate;
    use splice_core::simbuild::{build_peripheral, CalcLogic, CalcResult, FuncInputs};
    use splice_driver::lower::lower_call;
    use splice_driver::program::CallArgs;
    use splice_spec::parse_and_validate;
    use splice_spec::validate::ModuleSpec;

    struct SumCalc(u32);
    impl CalcLogic for SumCalc {
        fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
            CalcResult { cycles: self.0, output: vec![inputs.values.iter().flatten().sum()] }
        }
    }

    fn module(bus: &str, decls: &str) -> ModuleSpec {
        let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
        let src = format!("%device_name demo\n%bus_type {bus}\n%bus_width 32\n{base}{decls}");
        parse_and_validate(&src).unwrap().module
    }

    fn run_apb_call(m: &ModuleSpec, func: &str, args: CallArgs, calc: u32) -> (Vec<Word>, u64) {
        let ir = elaborate(m);
        let prog = lower_call(&m.params, m.function(func).unwrap(), &args).unwrap();
        let mut b = SimulatorBuilder::new();
        let handles = build_peripheral(&mut b, &ir, "sis.", |_, _| Box::new(SumCalc(calc)));
        let sig = ApbSignals::declare(&mut b, "", 32);
        b.component(Box::new(ApbAdapter::new(sig, handles.bus, 0x8000_0000, 32)));
        let midx = b.component(Box::new(ApbMaster::new(
            sig,
            m.params.bus.bridge_latency,
            prog.ops.clone(),
        )));
        let mut sim = b.build();
        sim.run_until("apb call", 1_000_000, |s| {
            s.component::<ApbMaster>(midx).unwrap().is_finished()
        })
        .unwrap();
        let m2 = sim.component::<ApbMaster>(midx).unwrap();
        (m2.reads.clone(), m2.finished_cycle.unwrap())
    }

    #[test]
    fn apb_scalar_roundtrip_with_polling() {
        let m = module("apb", "long add2(int a, int b);");
        let (reads, _) = run_apb_call(&m, "add2", CallArgs::scalars(&[40, 2]), 3);
        assert_eq!(reads, vec![42]);
    }

    #[test]
    fn apb_polls_out_long_calculations() {
        let m = module("apb", "long f(int a);");
        let (r_fast, fast) = run_apb_call(&m, "f", CallArgs::scalars(&[7]), 1);
        let (r_slow, slow) = run_apb_call(&m, "f", CallArgs::scalars(&[7]), 60);
        assert_eq!(r_fast, vec![7]);
        assert_eq!(r_slow, vec![7]);
        assert!(slow > fast + 50, "fast={fast} slow={slow}");
    }

    #[test]
    fn apb_split_64_bit_transfer() {
        let m = module("apb", "%user_type llong, unsigned long long, 64\nllong echo(llong v);");
        let f = m.function("echo").unwrap();
        let args = CallArgs::new(vec![splice_driver::program::CallValue::Scalar(0xAB_1234_5678)]);
        let prog = lower_call(&m.params, f, &args).unwrap();
        let (reads, _) = run_apb_call(&m, "echo", args, 2);
        assert_eq!(prog.decode_result(&reads), vec![0xAB_1234_5678]);
    }

    #[test]
    fn fcb_system_runs_via_direct_addressing() {
        let m = module("fcb", "long add2(int a, int b);");
        let ir = elaborate(&m);
        let prog = lower_call(&m.params, m.function("add2").unwrap(), &CallArgs::scalars(&[1, 2]))
            .unwrap();
        let mut b = SimulatorBuilder::new();
        let handles = build_peripheral(&mut b, &ir, "sis.", |_, _| Box::new(SumCalc(2)));
        let sys = PseudoAsyncSystem::attach(&mut b, "fcb.", handles.bus, &m.params);
        let midx = b.component(Box::new(sys.master(prog.ops.clone())));
        let mut sim = b.build();
        sim.run_until("fcb call", 100_000, |s| {
            s.component::<PlbCpuMaster>(midx).unwrap().is_finished()
        })
        .unwrap();
        assert_eq!(sim.component::<PlbCpuMaster>(midx).unwrap().reads, vec![3]);
    }

    #[test]
    fn opb_is_slower_than_plb_for_the_same_call() {
        // The OPB pays bridge hops (§2.3.2's "intrinsic latency penalties").
        let run = |bus: &str| {
            let m = module(bus, "long add2(int a, int b);");
            let ir = elaborate(&m);
            let prog =
                lower_call(&m.params, m.function("add2").unwrap(), &CallArgs::scalars(&[1, 2]))
                    .unwrap();
            let mut b = SimulatorBuilder::new();
            let handles = build_peripheral(&mut b, &ir, "sis.", |_, _| Box::new(SumCalc(2)));
            let sys = PseudoAsyncSystem::attach(&mut b, "n.", handles.bus, &m.params);
            let midx = b.component(Box::new(sys.master(prog.ops.clone())));
            let mut sim = b.build();
            sim.run_until("call", 100_000, |s| {
                s.component::<PlbCpuMaster>(midx).unwrap().is_finished()
            })
            .unwrap();
            sim.component::<PlbCpuMaster>(midx).unwrap().finished_cycle.unwrap()
        };
        let plb = run("plb");
        let opb = run("opb");
        assert!(opb > plb, "plb={plb} opb={opb}");
    }
}
