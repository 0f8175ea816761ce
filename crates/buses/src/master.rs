//! The CPU master: the PPC405-flavoured core that runs every driver
//! program.
//!
//! [`CpuMaster`] fetches each [`BusOp`], pays the instruction-issue cost
//! of a bus transfer, runs CPU-side `Compute`, polls status registers,
//! sleeps on completion interrupts, captures read data, and records when
//! the program finished. It drives one of two native ports:
//!
//! * the **request/acknowledge** port on [`PlbSignals`] — every
//!   pseudo-asynchronous bus (PLB, OPB, FCB, AHB, Wishbone, Avalon) and
//!   the hand-coded baselines: a request stays pending until the slave
//!   acknowledges it, bursts and DMA move their payloads through the
//!   shared [`PlbChannel`](crate::plb::PlbChannel);
//! * the strictly synchronous **APB** port on [`ApbSignals`]: a setup
//!   cycle, an enable cycle, and a fixed read-return schedule, because
//!   "devices attached to the interface are not allowed to pause the bus"
//!   (§2.3.1).
//!
//! [`CpuMaster::run`] is the one routine that runs a driver call.

use crate::generic::ApbSignals;
use crate::plb::{ChannelHandle, PlbSignals, DMA_CTRL_ADDR};
use crate::timing::{cpu_to_bus, DMA_SETUP_TXNS, REQUEST_CYCLES};
use splice_driver::program::BusOp;
use splice_sim::{Component, Sensitivity, SignalId, SimError, Simulator, TickCtx, Word};

/// The native port a [`CpuMaster`] drives.
enum Port {
    /// Request/acknowledge signalling (Figs 4.5/4.6) with the bulk channel
    /// of bursts and DMA.
    ReqAck { sig: PlbSignals, chan: ChannelHandle },
    /// The APB behind an AHB→APB bridge of `bridge_latency` bus cycles
    /// each way ([`BusCaps::bridge_latency`](splice_spec::bus::BusCaps)).
    Apb { sig: ApbSignals, bridge_latency: u32 },
}

/// The component name and metric names a port reports under.
struct Names {
    component: &'static str,
    txns: &'static str,
    latency: &'static str,
    busy: &'static str,
    polls: &'static str,
}

const REQ_ACK_NAMES: Names = Names {
    component: "plb-cpu-master",
    txns: "plb.master.txns",
    latency: "plb.master.req_ack_latency",
    busy: "plb.master.busy_cycles",
    polls: "plb.master.poll_reads",
};

const APB_NAMES: Names = Names {
    component: "apb-master",
    txns: "apb.master.txns",
    latency: "apb.master.req_ack_latency",
    busy: "apb.master.busy_cycles",
    polls: "apb.master.poll_reads",
};

impl Port {
    fn names(&self) -> &'static Names {
        match self {
            Port::ReqAck { .. } => &REQ_ACK_NAMES,
            Port::Apb { .. } => &APB_NAMES,
        }
    }

    /// The bulk channel of bursts and DMA.
    fn chan(&self) -> &ChannelHandle {
        match self {
            Port::ReqAck { chan, .. } => chan,
            Port::Apb { .. } => {
                unreachable!("the APB carries single transfers: validation refuses bursts and DMA")
            }
        }
    }

    fn req_ack(&self) -> PlbSignals {
        match self {
            Port::ReqAck { sig, .. } => *sig,
            Port::Apb { .. } => unreachable!("request/acknowledge state on the APB port"),
        }
    }

    /// The APB signals and the bridge latency.
    fn apb(&self) -> (ApbSignals, u32) {
        match self {
            Port::Apb { sig, bridge_latency } => (*sig, *bridge_latency),
            Port::ReqAck { .. } => unreachable!("APB state on the request/acknowledge port"),
        }
    }

    /// Bus cycles from fetching a transfer op to driving its request.
    fn issue_cycles(&self) -> u32 {
        match self {
            Port::ReqAck { .. } => REQUEST_CYCLES,
            Port::Apb { bridge_latency, .. } => REQUEST_CYCLES + bridge_latency,
        }
    }

    /// Deassert every request line.
    fn idle(&self, ctx: &mut TickCtx<'_>) {
        match self {
            Port::ReqAck { sig, .. } => {
                ctx.set_bool(sig.wr_ce, false);
                ctx.set_bool(sig.rd_ce, false);
                ctx.set_bool(sig.wr_req, false);
                ctx.set_bool(sig.rd_req, false);
                ctx.set(sig.be, 0);
                ctx.set(sig.burst_len, 1);
            }
            Port::Apb { sig, .. } => {
                ctx.set_bool(sig.psel, false);
                ctx.set_bool(sig.penable, false);
                ctx.set_bool(sig.pwrite, false);
            }
        }
    }
}

/// What a native transfer in flight is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Xfer {
    /// A store.
    Write,
    /// A DMA controller setup write: `left` more follow, then `armed`
    /// (is_write, beats, target address) goes to the engine.
    DmaSetup { left: u32, armed: (bool, u32, u64) },
    /// A load of `beats` beats, captured in op order.
    Read { beats: u32 },
    /// A status read: done once `bit` of the word at `addr` is set.
    Poll { addr: u64, bit: u32 },
}

impl Xfer {
    /// True for a load: a read or a status poll.
    fn is_load(self) -> bool {
        matches!(self, Xfer::Read { .. } | Xfer::Poll { .. })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    Fetch,
    /// Paying issue cycles before driving the request of the op at `pc`;
    /// `until` is the absolute cycle it goes out (so a sleeping master can
    /// jump straight to it).
    Issue {
        until: u64,
    },
    /// Request/acknowledge port: request raised, waiting for its
    /// acknowledge.
    AwaitAck(Xfer),
    /// APB port: setup phase driven; the enable phase follows.
    Enable(Xfer),
    /// APB port: enable phase held for its cycle; the transfer commits on
    /// the next edge.
    Commit(Xfer),
    /// APB port: the fixed read-return schedule, the registered-model
    /// stand-in for the APB's same-cycle combinational response.
    AwaitData {
        xfer: Xfer,
        until: u64,
    },
    /// DMA programmed; waiting for DMA_DONE since the given cycle.
    WaitDma {
        is_read: bool,
        since: u64,
    },
    /// CPU-side compute; busy until the given absolute bus cycle.
    Busy {
        until: u64,
    },
    /// Sleeping until a completion interrupt (the CPU's
    /// wait-for-interrupt state; no bus traffic).
    WaitIrq {
        bit: u32,
        ack_pending: bool,
    },
    Done,
}

/// The PPC405-flavoured CPU master: executes driver programs on one
/// native port.
pub struct CpuMaster {
    port: Port,
    /// The peripheral's sticky interrupt vector + acknowledge strobe, when
    /// the design was generated with `%irq_support`.
    irq: Option<(SignalId, SignalId)>,
    ops: Vec<BusOp>,
    pc: usize,
    state: MState,
    /// Data captured by read operations, in op order.
    reads: Vec<Word>,
    /// Cycle at which the whole op list finished.
    finished_cycle: Option<u64>,
    /// Total native bus transactions issued (for diagnostics).
    pub(crate) bus_txns: u64,
    /// Cycle the outstanding request was driven (for latency histograms).
    req_start: Option<u64>,
}

impl CpuMaster {
    fn new(port: Port) -> Self {
        CpuMaster {
            port,
            irq: None,
            ops: Vec::new(),
            pc: 0,
            state: MState::Fetch,
            reads: Vec::new(),
            finished_cycle: None,
            bus_txns: 0,
            req_start: None,
        }
    }

    /// A master on the request/acknowledge port `sig`, moving burst and
    /// DMA payloads through `chan`.
    pub fn req_ack(sig: PlbSignals, chan: ChannelHandle) -> Self {
        Self::new(Port::ReqAck { sig, chan })
    }

    /// A master on the APB `sig`, behind a bridge of `bridge_latency` bus
    /// cycles each way.
    pub fn apb(sig: ApbSignals, bridge_latency: u32) -> Self {
        Self::new(Port::Apb { sig, bridge_latency })
    }

    /// Connect the completion-interrupt vector and acknowledge strobe.
    pub fn with_irq(mut self, vector: SignalId, ack: SignalId) -> Self {
        self.irq = Some((vector, ack));
        self
    }

    /// Run one driver call on the master at component `idx` of `sim`:
    /// reload it with `ops` (the simulation keeps running on the same
    /// hardware, exactly like calling the next generated driver function
    /// from application code), step until the program finishes or
    /// `budget` cycles pass, and return the bus cycles it took and the
    /// words it read.
    pub fn run(
        sim: &mut Simulator,
        idx: usize,
        ops: Vec<BusOp>,
        budget: u64,
    ) -> Result<(u64, Vec<Word>), SimError> {
        const NOT_A_MASTER: &str = "a CpuMaster at the master index";
        let start = sim.cycle();
        let m = sim.component_mut::<CpuMaster>(idx).expect(NOT_A_MASTER);
        m.ops = ops;
        m.pc = 0;
        m.state = MState::Fetch;
        m.reads.clear();
        m.finished_cycle = None;
        m.req_start = None;
        sim.run_until("driver call", budget, |s| {
            s.component::<CpuMaster>(idx).expect(NOT_A_MASTER).finished_cycle.is_some()
        })?;
        let m = sim.component::<CpuMaster>(idx).expect(NOT_A_MASTER);
        let finished = m.finished_cycle.expect("run_until stopped on a finished program");
        Ok((finished - start, m.reads.clone()))
    }

    fn next_op(&mut self, cycle: u64) {
        self.pc += 1;
        if self.pc >= self.ops.len() {
            self.finished_cycle = Some(cycle);
            self.state = MState::Done;
        } else {
            self.state = MState::Fetch;
        }
    }

    /// Drive the native request of `xfer`: `data` is the (first) beat of a
    /// store, `None` for a load, and `beats` the burst length.
    fn request(
        &mut self,
        ctx: &mut TickCtx<'_>,
        addr: u64,
        data: Option<Word>,
        beats: u32,
        xfer: Xfer,
    ) {
        self.bus_txns += 1;
        self.req_start = Some(ctx.cycle());
        ctx.metric_add(self.port.names().txns, 1);
        match &self.port {
            Port::ReqAck { sig, .. } => {
                // Figs 4.5/4.6: address, CE and BE, the request strobed
                // for one cycle.
                let (ce, req, kind) = match data {
                    Some(d) => {
                        ctx.set(sig.m_data, d);
                        (sig.wr_ce, sig.wr_req, "wr_req")
                    }
                    None => (sig.rd_ce, sig.rd_req, "rd_req"),
                };
                ctx.set(sig.addr, addr);
                ctx.set_bool(ce, true);
                ctx.set(sig.be, 0xF);
                ctx.set_bool(req, true);
                ctx.set(sig.burst_len, beats as Word);
                if ctx.metrics_enabled() {
                    ctx.metric_observe("plb.master.burst_beats", beats as u64);
                    ctx.protocol_event(
                        "plb-cpu-master",
                        kind,
                        format!("addr=0x{addr:x} beats={beats}"),
                    );
                }
                self.state = MState::AwaitAck(xfer);
            }
            Port::Apb { sig, .. } => {
                // Setup phase: address, select and direction.
                ctx.set(sig.paddr, addr);
                ctx.set_bool(sig.psel, true);
                ctx.set_bool(sig.pwrite, data.is_some());
                if let Some(d) = data {
                    ctx.set(sig.pwdata, d);
                }
                if ctx.metrics_enabled() {
                    let kind = if data.is_some() { "setup_write" } else { "setup_read" };
                    ctx.protocol_event("apb-master", kind, format!("addr=0x{addr:x}"));
                }
                self.state = MState::Enable(xfer);
            }
        }
    }

    /// The outstanding transfer completed: record its request→completion
    /// latency.
    fn observe_latency(&mut self, ctx: &mut TickCtx<'_>) -> u64 {
        let latency = ctx.cycle() - self.req_start.take().expect("a transfer in flight");
        ctx.metric_observe(self.port.names().latency, latency);
        latency
    }

    /// Start the op at `pc`.
    fn begin(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle();
        match self.ops[self.pc] {
            BusOp::Write { addr, data } => self.request(ctx, addr, Some(data), 1, Xfer::Write),
            BusOp::WriteBurst { addr, ref data } => {
                let (first, beats) = (data[0], data.len() as u32);
                self.port.chan().borrow_mut().to_slave.extend(data.iter().copied());
                self.request(ctx, addr, Some(first), beats, Xfer::Write);
            }
            BusOp::Read { addr } => self.request(ctx, addr, None, 1, Xfer::Read { beats: 1 }),
            BusOp::ReadBurst { addr, beats } => {
                self.request(ctx, addr, None, beats, Xfer::Read { beats })
            }
            BusOp::Poll { addr, bit } => self.request(ctx, addr, None, 1, Xfer::Poll { addr, bit }),
            // Pseudo-asynchronous: the per-beat handshakes already ordered
            // everything (§6.1.1).
            BusOp::WaitHandshake => self.next_op(cycle),
            BusOp::DmaWrite { addr, ref data } => {
                let beats = data.len() as u32;
                self.port.chan().borrow_mut().to_slave.extend(data.iter().copied());
                self.program_dma(ctx, (true, beats, addr));
            }
            BusOp::DmaRead { addr, beats } => self.program_dma(ctx, (false, beats, addr)),
            BusOp::Compute { cpu_cycles } => {
                let bus = cpu_to_bus(cpu_cycles);
                if bus == 0 {
                    self.next_op(cycle);
                } else {
                    ctx.metric_add(self.port.names().busy, bus as u64);
                    self.state = MState::Busy { until: cycle + bus as u64 };
                }
            }
            BusOp::WaitIrq { bit } => {
                assert!(self.irq.is_some(), "WaitIrq op on a system without %irq_support");
                self.state = MState::WaitIrq { bit, ack_pending: false };
            }
        }
    }

    /// Program the DMA controller for `armed`: the thesis's "minimum of
    /// four bus transactions to setup and take down" (§9.2.1).
    fn program_dma(&mut self, ctx: &mut TickCtx<'_>, armed: (bool, u32, u64)) {
        let xfer = Xfer::DmaSetup { left: DMA_SETUP_TXNS - 1, armed };
        self.request(ctx, DMA_CTRL_ADDR, Some(armed.1 as Word), 1, xfer);
    }

    /// The transfer `xfer` completed with `data` on the bus's read lines.
    fn complete(&mut self, ctx: &mut TickCtx<'_>, xfer: Xfer, data: Word) {
        let cycle = ctx.cycle();
        match xfer {
            Xfer::Write => self.next_op(cycle),
            Xfer::DmaSetup { left: 0, armed } => {
                // Controller fully programmed: arm the engine.
                self.port.chan().borrow_mut().dma_pending = Some(armed);
                self.state = MState::WaitDma { is_read: !armed.0, since: cycle };
            }
            Xfer::DmaSetup { left, armed } => {
                let next = Xfer::DmaSetup { left: left - 1, armed };
                self.request(ctx, DMA_CTRL_ADDR, Some(0), 1, next);
            }
            Xfer::Read { beats: 1 } => {
                self.reads.push(data);
                self.next_op(cycle);
            }
            Xfer::Read { beats } => {
                // Burst beats were collected by the adapter.
                let mut ch = self.port.chan().borrow_mut();
                let n = (beats as usize).min(ch.from_slave.len());
                self.reads.extend(ch.from_slave.drain(..n));
                drop(ch);
                self.next_op(cycle);
            }
            Xfer::Poll { addr, bit } => {
                if (data >> bit) & 1 == 1 {
                    self.next_op(cycle);
                } else {
                    // Poll again: a fresh read transaction.
                    ctx.metric_add(self.port.names().polls, 1);
                    self.request(ctx, addr, None, 1, xfer);
                }
            }
        }
    }
}

impl Component for CpuMaster {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle();
        match std::mem::replace(&mut self.state, MState::Done) {
            MState::Fetch => {
                self.port.idle(ctx);
                let Some(op) = self.ops.get(self.pc) else {
                    self.finished_cycle.get_or_insert(cycle);
                    return;
                };
                // Only a bus transfer pays the issue cycles.
                if matches!(
                    op,
                    BusOp::Compute { .. } | BusOp::WaitIrq { .. } | BusOp::WaitHandshake
                ) {
                    self.begin(ctx);
                } else {
                    self.state = MState::Issue { until: cycle + self.port.issue_cycles() as u64 };
                }
            }
            MState::Issue { until } => {
                if cycle >= until {
                    self.begin(ctx);
                } else {
                    self.state = MState::Issue { until };
                }
            }
            MState::AwaitAck(xfer) => {
                let sig = self.port.req_ack();
                let (req, ack, ce, kind) = if xfer.is_load() {
                    (sig.rd_req, sig.rd_ack, sig.rd_ce, "rd_ack")
                } else {
                    (sig.wr_req, sig.wr_ack, sig.wr_ce, "wr_ack")
                };
                ctx.set_bool(req, false);
                if ctx.get_bool(ack) {
                    // Credit the `latency − 1` cycles strictly between
                    // request and acknowledge as master wait cycles.
                    let latency = self.observe_latency(ctx);
                    ctx.metric_add("plb.master.wait_cycles", latency - 1);
                    if ctx.metrics_enabled() {
                        ctx.protocol_event("plb-cpu-master", kind, "");
                    }
                    ctx.set_bool(ce, false);
                    ctx.set(sig.be, 0);
                    self.complete(ctx, xfer, ctx.get(sig.s_data));
                } else {
                    self.state = MState::AwaitAck(xfer);
                }
            }
            MState::Enable(xfer) => {
                // Second phase of the APB transfer: PSEL stays, PENABLE
                // rises for exactly one cycle.
                ctx.set_bool(self.port.apb().0.penable, true);
                self.state = MState::Commit(xfer);
            }
            MState::Commit(xfer) => {
                self.port.idle(ctx);
                if xfer.is_load() {
                    // Fixed read-return latency: the request crosses the
                    // bridge, the SIS round trip, and back.
                    let latency = 3 + 2 * self.port.apb().1;
                    ctx.metric_add("apb.master.wait_cycles", latency as u64 - 1);
                    self.state = MState::AwaitData { xfer, until: cycle + latency as u64 };
                } else {
                    // Writes complete in the enable cycle: no wait states.
                    self.observe_latency(ctx);
                    self.complete(ctx, xfer, 0);
                }
            }
            MState::AwaitData { xfer, until } => {
                if cycle >= until {
                    let data = ctx.get(self.port.apb().0.prdata);
                    self.observe_latency(ctx);
                    self.port.idle(ctx);
                    self.complete(ctx, xfer, data);
                } else {
                    self.state = MState::AwaitData { xfer, until };
                }
            }
            MState::WaitDma { is_read, since } => {
                self.port.idle(ctx);
                if ctx.get_bool(self.port.req_ack().dma_done) {
                    ctx.metric_add("plb.master.dma_wait_cycles", cycle - since);
                    if is_read {
                        self.reads.extend(self.port.chan().borrow_mut().from_slave.drain(..));
                    }
                    self.next_op(cycle);
                } else {
                    self.state = MState::WaitDma { is_read, since };
                }
            }
            MState::Busy { until } => {
                if cycle >= until {
                    self.next_op(cycle);
                } else {
                    self.state = MState::Busy { until };
                }
            }
            MState::WaitIrq { bit, ack_pending } => {
                let (vector, ack) = self.irq.expect("irq wired");
                if ack_pending {
                    ctx.set_bool(ack, false);
                    self.next_op(cycle);
                } else if (ctx.get(vector) >> bit) & 1 == 1 {
                    // Acknowledge (clears the peripheral's sticky vector)
                    // and finish next cycle.
                    ctx.set_bool(ack, true);
                    self.state = MState::WaitIrq { bit, ack_pending: true };
                } else {
                    self.state = MState::WaitIrq { bit, ack_pending: false };
                }
            }
            MState::Done => self.port.idle(ctx),
        }
        // Timed wakes for the states that advance without any watched-signal
        // edge (no-op under eager scheduling).
        match self.state {
            MState::Fetch
            | MState::Enable(_)
            | MState::Commit(_)
            | MState::WaitIrq { ack_pending: true, .. } => ctx.wake_after(1),
            MState::Issue { until } | MState::Busy { until } | MState::AwaitData { until, .. } => {
                ctx.wake_after(until.saturating_sub(cycle).max(1));
            }
            MState::WaitIrq { bit, ack_pending: false } => {
                // Edges on the vector only arrive for *future* completions;
                // an already-latched bit must be consumed by ticking again.
                if let Some((vector, _)) = self.irq {
                    if (ctx.get(vector) >> bit) & 1 == 1 {
                        ctx.wake_after(1);
                    }
                }
            }
            _ => {}
        }
    }

    fn sensitivity(&self) -> Sensitivity {
        let mut sigs = match &self.port {
            // Own request strobes are watched so the raise-edge wakes the
            // master for the cycle that lowers them.
            Port::ReqAck { sig, .. } => {
                vec![sig.wr_ack, sig.rd_ack, sig.dma_done, sig.wr_req, sig.rd_req]
            }
            // Every APB phase falls on a fixed cycle: timed wakes alone.
            Port::Apb { .. } => Vec::new(),
        };
        if let Some((vector, _)) = self.irq {
            sigs.push(vector);
        }
        Sensitivity::Signals(sigs)
    }

    fn name(&self) -> &str {
        self.port.names().component
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
