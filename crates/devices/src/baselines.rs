//! The hand-coded baseline interfaces of §9.2.1.
//!
//! Chapter 9 compares Splice-generated interfaces against "two pre-existing
//! bus interconnects for the device that were coded by hand for use in
//! previous research":
//!
//! * **Simple PLB** — "the product of the first attempt at generating an
//!   interface ... the designer was not aware of all of the intricacies of
//!   the PLB and thus the interface was not nearly as optimized as it could
//!   have been". Modelled as a direct PLB slave that inserts dead cycles
//!   before every acknowledge and cannot stream bursts.
//! * **Optimized FCB** — "a highly optimized implementation that was
//!   created to replace the slower PLB interconnect". Modelled as a direct
//!   FCB-attached slave with zero-latency acknowledges and single-cycle
//!   burst beat streaming.
//!
//! Neither touches any Splice-generated logic: they sit directly on the
//! native signal bundle, exactly as a hand rolled interface would.

use crate::interp::{interpolate_flat, INTERP_CALC_CYCLES};
use splice_buses::plb::{channel, ChannelHandle, PlbCpuMaster, PlbSignals};
use splice_buses::timing::BusTiming;
use splice_driver::lower::CALL_PROLOGUE_CPU_CYCLES;
use splice_driver::program::BusOp;
use splice_resources::{ResourceReport, Resources};
use splice_sim::{Component, Sensitivity, Simulator, SimulatorBuilder, TickCtx, Word};
use splice_spec::bus::BusKind;
use std::rc::Rc;

/// Extra acknowledge latency of the naive hand-coded PLB interface, in bus
/// cycles per transaction (the "not nearly as optimized" §9.2.1 design:
/// conservative double-registered request sampling and a slow ack path).
pub const NAIVE_PLB_ACK_LATENCY: u32 = 4;

/// Per-call CPU overhead of the pre-existing hand driver set, in CPU
/// cycles (same ballpark as the generated drivers' prologue).
pub const HAND_DRIVER_PROLOGUE: u32 = CALL_PROLOGUE_CPU_CYCLES;

/// A hand-coded native bus slave: accumulates written words, and on the
/// first read request runs the supplied calculation and answers with its
/// result.
pub struct HandCodedSlave {
    sig: PlbSignals,
    chan: ChannelHandle,
    /// Dead cycles inserted before each acknowledge.
    pub ack_latency: u32,
    /// True: burst beats stream at one per cycle (optimized FCB);
    /// false: bursts degrade to per-beat handshakes (naive PLB).
    pub burst_streaming: bool,
    calc: fn(&[Word]) -> Word,
    calc_cycles: u32,
    // state
    words: Vec<Word>,
    state: SlaveState,
    lower_wr_ack: bool,
    lower_rd_ack: bool,
    /// Completed calculation rounds.
    pub rounds: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlaveState {
    Idle,
    AckWriteIn { remaining: u32, beats: u32 },
    StreamBurst { remaining: u32 },
    Calc { remaining: u32 },
    AckReadIn { remaining: u32 },
}

impl HandCodedSlave {
    /// Create a slave with the given personality.
    pub fn new(
        sig: PlbSignals,
        chan: ChannelHandle,
        ack_latency: u32,
        burst_streaming: bool,
        calc: fn(&[Word]) -> Word,
        calc_cycles: u32,
    ) -> Self {
        HandCodedSlave {
            sig,
            chan,
            ack_latency,
            burst_streaming,
            calc,
            calc_cycles,
            words: Vec::new(),
            state: SlaveState::Idle,
            lower_wr_ack: false,
            lower_rd_ack: false,
            rounds: 0,
        }
    }
}

impl Component for HandCodedSlave {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.lower_wr_ack {
            ctx.set_bool(self.sig.wr_ack, false);
            self.lower_wr_ack = false;
        }
        if self.lower_rd_ack {
            ctx.set_bool(self.sig.rd_ack, false);
            self.lower_rd_ack = false;
        }
        match self.state {
            SlaveState::Idle => {
                if ctx.get_bool(self.sig.wr_req) && ctx.get_bool(self.sig.wr_ce) {
                    let beats = ctx.get(self.sig.burst_len).max(1) as u32;
                    if beats > 1 {
                        // Burst data was staged in the channel by the master.
                        if self.burst_streaming {
                            self.state = SlaveState::StreamBurst { remaining: beats };
                        } else {
                            // No burst support: absorb the data but pay the
                            // per-beat handshake anyway.
                            self.state = SlaveState::AckWriteIn {
                                remaining: self.ack_latency.max(1) * beats,
                                beats,
                            };
                        }
                    } else {
                        self.words.push(ctx.get(self.sig.m_data));
                        self.state =
                            SlaveState::AckWriteIn { remaining: self.ack_latency.max(1), beats: 0 };
                    }
                } else if ctx.get_bool(self.sig.rd_req) && ctx.get_bool(self.sig.rd_ce) {
                    self.state = SlaveState::Calc { remaining: self.calc_cycles.max(1) };
                }
            }
            SlaveState::AckWriteIn { remaining, beats } => {
                if remaining <= 1 {
                    if beats > 0 {
                        let mut ch = self.chan.borrow_mut();
                        for _ in 0..beats {
                            if let Some(v) = ch.to_slave.pop_front() {
                                self.words.push(v);
                            }
                        }
                    }
                    ctx.set_bool(self.sig.wr_ack, true);
                    self.lower_wr_ack = true;
                    self.state = SlaveState::Idle;
                } else {
                    ctx.metric_add("slave.wait_state_cycles", 1);
                    self.state = SlaveState::AckWriteIn { remaining: remaining - 1, beats };
                }
            }
            SlaveState::StreamBurst { remaining } => {
                // One beat per cycle straight out of the staging queue.
                ctx.metric_add("slave.burst_beats", 1);
                if let Some(v) = self.chan.borrow_mut().to_slave.pop_front() {
                    self.words.push(v);
                }
                if remaining <= 1 {
                    ctx.set_bool(self.sig.wr_ack, true);
                    self.lower_wr_ack = true;
                    self.state = SlaveState::Idle;
                } else {
                    self.state = SlaveState::StreamBurst { remaining: remaining - 1 };
                }
            }
            SlaveState::Calc { remaining } => {
                if remaining <= 1 {
                    let result = (self.calc)(&self.words);
                    ctx.set(self.sig.s_data, result);
                    self.words.clear();
                    self.rounds += 1;
                    self.state = SlaveState::AckReadIn { remaining: self.ack_latency.max(1) };
                } else {
                    self.state = SlaveState::Calc { remaining: remaining - 1 };
                }
            }
            SlaveState::AckReadIn { remaining } => {
                if remaining <= 1 {
                    ctx.set_bool(self.sig.rd_ack, true);
                    self.lower_rd_ack = true;
                    self.state = SlaveState::Idle;
                } else {
                    ctx.metric_add("slave.wait_state_cycles", 1);
                    self.state = SlaveState::AckReadIn { remaining: remaining - 1 };
                }
            }
        }
        // Self-clock through every active countdown: each state counts its
        // `remaining` cycles down one tick at a time and streamed bursts pop
        // one staged beat per tick. Only Idle sleeps, woken by the next
        // request edge. (Ticking every active cycle is also what keeps the
        // per-tick wait-state and burst-beat counters exact.)
        if self.state != SlaveState::Idle {
            ctx.wake_after(1);
        }
    }

    fn sensitivity(&self) -> Sensitivity {
        // Request edges start work; the slave's own acknowledge strobes
        // wake it for the tick that lowers them again.
        Sensitivity::Signals(vec![
            self.sig.wr_req,
            self.sig.rd_req,
            self.sig.wr_ack,
            self.sig.rd_ack,
        ])
    }

    fn name(&self) -> &str {
        "hand-coded-slave"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Which hand-coded baseline to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// The naive "Simple PLB" interface.
    SimplePlb,
    /// The "Optimized FCB" interface.
    OptimizedFcb,
}

/// A live baseline system: CPU master + native bus + hand-coded slave.
pub struct BaselineSystem {
    sim: Simulator,
    master_idx: usize,
    /// Per-call cycle budget.
    pub call_budget: u64,
}

impl BaselineSystem {
    /// Build a baseline interpolator system.
    pub fn build(which: Baseline) -> Self {
        Self::build_with_calc(which, interpolate_flat, INTERP_CALC_CYCLES)
    }

    /// Build a baseline with custom device logic (tests).
    pub fn build_with_calc(which: Baseline, calc: fn(&[Word]) -> Word, calc_cycles: u32) -> Self {
        let mut b = SimulatorBuilder::new();
        let sig = PlbSignals::declare(&mut b, "", 32);
        let chan = channel();
        let (latency, streaming, timing) = match which {
            Baseline::SimplePlb => (NAIVE_PLB_ACK_LATENCY, false, BusTiming::for_bus(BusKind::Plb)),
            Baseline::OptimizedFcb => (0, true, BusTiming::for_bus(BusKind::Fcb)),
        };
        b.component(Box::new(HandCodedSlave::new(
            sig,
            Rc::clone(&chan),
            latency,
            streaming,
            calc,
            calc_cycles,
        )));
        let master_idx = b.component(Box::new(PlbCpuMaster::new(sig, timing, chan, Vec::new())));
        BaselineSystem { sim: b.build(), master_idx, call_budget: 1_000_000 }
    }

    /// Run one driver call (a raw op list) and return (cycles, reads).
    pub fn run_bus_ops(&mut self, ops: Vec<BusOp>) -> (u64, Vec<Word>) {
        let start = self.sim.cycle();
        self.sim.component_mut::<PlbCpuMaster>(self.master_idx).expect("master").reload(ops);
        let idx = self.master_idx;
        self.sim
            .run_until("baseline call", self.call_budget, |s| {
                s.component::<PlbCpuMaster>(idx).unwrap().is_finished()
            })
            .expect("baseline call completes");
        let m = self.sim.component::<PlbCpuMaster>(idx).unwrap();
        (m.finished_cycle.unwrap() - start, m.reads.clone())
    }

    /// The underlying simulator (metrics, trace access).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access (enable metrics, attach traces).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

/// The hand-written driver of the naive PLB interface: one store per word,
/// one load for the result — the "pre-existing drivers" of §9.3.
pub fn naive_plb_driver_ops(words: &[Word]) -> Vec<BusOp> {
    let addr = 0x8000_0000;
    let mut ops = Vec::with_capacity(words.len() + 2);
    ops.push(BusOp::Compute { cpu_cycles: HAND_DRIVER_PROLOGUE });
    for &w in words {
        ops.push(BusOp::Write { addr, data: w });
    }
    ops.push(BusOp::Read { addr });
    ops
}

/// CPU cycles the hand FCB driver spends marshalling one burst's operands
/// into the co-processor registers before issuing the quad/double store
/// (the FCB is register-operand based, §2.3.2).
pub const FCB_MARSHAL_CPU_CYCLES: u32 = 6;

/// The hand-optimized FCB driver: quad/double-word stores wherever the
/// data allows, then the result load.
pub fn optimized_fcb_driver_ops(words: &[Word]) -> Vec<BusOp> {
    let addr = 1; // co-processor channel
    let mut ops = Vec::with_capacity(words.len() / 4 + 3);
    ops.push(BusOp::Compute { cpu_cycles: HAND_DRIVER_PROLOGUE });
    let mut i = 0;
    while i < words.len() {
        let left = words.len() - i;
        if left >= 4 {
            ops.push(BusOp::Compute { cpu_cycles: FCB_MARSHAL_CPU_CYCLES });
            ops.push(BusOp::WriteBurst { addr, data: words[i..i + 4].to_vec() });
            i += 4;
        } else if left >= 2 {
            ops.push(BusOp::Compute { cpu_cycles: FCB_MARSHAL_CPU_CYCLES });
            ops.push(BusOp::WriteBurst { addr, data: words[i..i + 2].to_vec() });
            i += 2;
        } else {
            ops.push(BusOp::Write { addr, data: words[i] });
            i += 1;
        }
    }
    ops.push(BusOp::Read { addr });
    ops
}

/// Structural resource inventory of the naive Simple PLB interface.
///
/// The §9.3.2 comparison is about *interface* logic. The naive design pays
/// for: full 32-bit address comparators on both the read and write ports
/// (instead of a shared narrow select), double-registered request
/// synchronisers, a one-hot control FSM, and separate in/out holding
/// registers per direction — the classic shape of a first-attempt slave.
pub fn naive_plb_resources() -> ResourceReport {
    ResourceReport {
        items: vec![
            // The essential interpolator interface logic every
            // implementation needs: per-set bound registers, beat counters
            // and comparators for the three datasets.
            ("set_trackers_3x".into(), Resources::new(72, 96)),
            ("data_in_hold".into(), Resources::new(6, 32)),
            ("data_out_hold".into(), Resources::new(6, 32)),
            // ... plus the naive design's waste:
            ("addr_compare_rd_wr".into(), Resources::new(64, 0)), // 2 × full 32-bit equality
            ("one_hot_fsm_16_states".into(), Resources::new(32, 16)),
            ("duplicated_data_stage".into(), Resources::new(6, 64)), // double-buffered datapath
            ("request_synchronisers".into(), Resources::new(8, 24)),
            ("ack_pipeline".into(), Resources::new(12, 18)),
            ("byte_enable_logic".into(), Resources::new(10, 8)),
            ("over_wide_counters".into(), Resources::new(6, 12)),
            ("input_select_mux".into(), Resources::new(14, 0)),
        ],
    }
}

/// Structural resource inventory of the hand-optimized FCB interface:
/// minimal decode (the FCB is single-device), encoded FSM, single holding
/// registers.
pub fn optimized_fcb_resources() -> ResourceReport {
    ResourceReport {
        items: vec![
            // Same essential per-set tracking structure as every other
            // complete interpolator interface ...
            ("set_trackers_3x".into(), Resources::new(72, 96)),
            ("operand_hold".into(), Resources::new(4, 32)),
            ("result_hold".into(), Resources::new(4, 32)),
            // ... with a lean, latency-tuned control path:
            ("opcode_decode".into(), Resources::new(8, 0)),
            ("compact_fsm_3bit".into(), Resources::new(12, 4)),
            ("burst_beat_stage".into(), Resources::new(10, 36)), // streaming beat registers
            ("handshake".into(), Resources::new(8, 6)),
            ("status_flags".into(), Resources::new(4, 16)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{reference_result, Scenario};

    #[test]
    fn naive_plb_returns_correct_results() {
        let mut sys = BaselineSystem::build(Baseline::SimplePlb);
        for s in Scenario::all() {
            let (cycles, reads) = sys.run_bus_ops(naive_plb_driver_ops(&s.flat_inputs()));
            assert_eq!(reads, vec![reference_result(s)], "{s:?}");
            assert!(cycles > 0);
        }
    }

    #[test]
    fn optimized_fcb_returns_correct_results() {
        let mut sys = BaselineSystem::build(Baseline::OptimizedFcb);
        for s in Scenario::all() {
            let (cycles, reads) = sys.run_bus_ops(optimized_fcb_driver_ops(&s.flat_inputs()));
            assert_eq!(reads, vec![reference_result(s)], "{s:?}");
            assert!(cycles > 0);
        }
    }

    #[test]
    fn optimized_fcb_is_much_faster_than_naive_plb() {
        let mut naive = BaselineSystem::build(Baseline::SimplePlb);
        let mut opt = BaselineSystem::build(Baseline::OptimizedFcb);
        for s in Scenario::all() {
            let (n, _) = naive.run_bus_ops(naive_plb_driver_ops(&s.flat_inputs()));
            let (o, _) = opt.run_bus_ops(optimized_fcb_driver_ops(&s.flat_inputs()));
            assert!(o < n, "{s:?}: optimized {o} vs naive {n}");
        }
    }

    #[test]
    fn slave_rounds_reset_between_runs() {
        let mut sys = BaselineSystem::build(Baseline::SimplePlb);
        let s = Scenario::S1;
        sys.run_bus_ops(naive_plb_driver_ops(&s.flat_inputs()));
        let (_, reads) = sys.run_bus_ops(naive_plb_driver_ops(&s.flat_inputs()));
        // Second run must not see stale words from the first.
        assert_eq!(reads, vec![reference_result(s)]);
    }

    #[test]
    fn ack_latency_scales_cycles() {
        fn dev(words: &[Word]) -> Word {
            words.iter().sum()
        }
        let mut slow = BaselineSystem::build_with_calc(Baseline::SimplePlb, dev, 2);
        let mut fast = BaselineSystem::build_with_calc(Baseline::OptimizedFcb, dev, 2);
        let ops = |_: ()| naive_plb_driver_ops(&[1, 2, 3, 4]);
        let (c_slow, r1) = slow.run_bus_ops(ops(()));
        // The optimized system still answers naive-shaped traffic (single
        // writes), just faster.
        let (c_fast, r2) = fast.run_bus_ops(ops(()));
        assert_eq!(r1, r2);
        assert!(c_fast < c_slow, "fast={c_fast} slow={c_slow}");
    }

    #[test]
    fn baseline_resource_totals_have_the_expected_ordering() {
        let naive = naive_plb_resources().total();
        let opt = optimized_fcb_resources().total();
        // The naive PLB is the biggest hand design; the optimized FCB the
        // smallest (Fig 9.3's ordering).
        assert!(naive.slices() > opt.slices(), "naive {naive} vs optimized {opt}");
        assert!(
            naive.slices() as f64 / opt.slices() as f64 > 1.2,
            "naive should be clearly larger: {naive} vs {opt}"
        );
    }
}
