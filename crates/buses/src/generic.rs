//! Bus models beyond the PLB.
//!
//! The remaining pseudo-asynchronous interconnects (OPB, FCB, AHB,
//! Wishbone, Avalon) share the request/acknowledge shape of the PLB —
//! §4.3.2 observes that "the vast majority of interfaces in use today tend
//! to employ protocols that are functionally equivalent to one another" —
//! so they reuse the PLB adapter and the CPU master's request/acknowledge
//! port with their own bridge stalls and (for the FCB) direct function-id
//! addressing instead of memory-mapped decode, both read from the bus's
//! [`BusCaps`](splice_spec::bus::BusCaps).
//!
//! The strictly synchronous AMBA APB is genuinely different (§4.2.2): no
//! per-beat acknowledge exists, so it gets its own [`ApbAdapter`] and the
//! CPU master's APB port, with fixed-schedule completion and CALC_DONE
//! polling.

use crate::master::CpuMaster;
use crate::plb::{channel, ChannelHandle, PlbSignals, PlbSisAdapter};
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

    /// Create the matching CPU master, on its request/acknowledge port.
    pub fn master(&self) -> CpuMaster {
        CpuMaster::req_ack(self.signals, std::rc::Rc::clone(&self.chan))
    }
}

#[cfg(test)]
mod tests {
    use crate::system::SplicedSystem;
    use splice_core::simbuild::{CalcLogic, CalcResult, FuncInputs};
    use splice_driver::lower::lower_call;
    use splice_driver::program::{CallArgs, CallValue};
    use splice_sim::Word;
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

    /// One call on a fresh system: the raw words read and the bus cycles.
    fn run_call(m: &ModuleSpec, func: &str, args: CallArgs, calc: u32) -> (Vec<Word>, u64) {
        let mut sys = SplicedSystem::build(m, |_, _| Box::new(SumCalc(calc)));
        let out = sys.call(func, &args).unwrap();
        (out.raw, out.bus_cycles)
    }

    #[test]
    fn apb_scalar_roundtrip_with_polling() {
        let m = module("apb", "long add2(int a, int b);");
        let (reads, _) = run_call(&m, "add2", CallArgs::scalars(&[40, 2]), 3);
        assert_eq!(reads, vec![42]);
    }

    #[test]
    fn apb_polls_out_long_calculations() {
        let m = module("apb", "long f(int a);");
        let (r_fast, fast) = run_call(&m, "f", CallArgs::scalars(&[7]), 1);
        let (r_slow, slow) = run_call(&m, "f", CallArgs::scalars(&[7]), 60);
        assert_eq!(r_fast, vec![7]);
        assert_eq!(r_slow, vec![7]);
        assert!(slow > fast + 50, "fast={fast} slow={slow}");
    }

    #[test]
    fn apb_split_64_bit_transfer() {
        let m = module("apb", "%user_type llong, unsigned long long, 64\nllong echo(llong v);");
        let f = m.function("echo").unwrap();
        let args = CallArgs::new(vec![CallValue::Scalar(0xAB_1234_5678)]);
        let prog = lower_call(&m.params, f, &args).unwrap();
        let (reads, _) = run_call(&m, "echo", args, 2);
        assert_eq!(prog.decode_result(&reads), vec![0xAB_1234_5678]);
    }

    #[test]
    fn fcb_system_runs_via_direct_addressing() {
        let m = module("fcb", "long add2(int a, int b);");
        let (reads, _) = run_call(&m, "add2", CallArgs::scalars(&[1, 2]), 2);
        assert_eq!(reads, vec![3]);
    }

    #[test]
    fn opb_is_slower_than_plb_for_the_same_call() {
        // The OPB pays bridge hops (§2.3.2's "intrinsic latency penalties").
        let cycles = |bus: &str| {
            let m = module(bus, "long add2(int a, int b);");
            run_call(&m, "add2", CallArgs::scalars(&[1, 2]), 2).1
        };
        let plb = cycles("plb");
        let opb = cycles("opb");
        assert!(opb > plb, "plb={plb} opb={opb}");
    }
}
