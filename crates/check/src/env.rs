//! SIS environment models.
//!
//! The checker drives a compiled design exactly the way the scripted
//! [`SisMaster`](splice_sis) and the generated C driver do. Two layers:
//!
//! * [`stub_script`] derives the deterministic driver transaction sequence
//!   for one function stub from its IR (write every input beat, poll the
//!   status vector on strictly synchronous buses, read every output beat),
//!   run for two full rounds so FSM reusability is observable.
//! * [`run_script`] executes that script against the transition relation
//!   with the master's exact line timing: IO_ENABLE is a one-cycle strobe,
//!   DATA_IN_VALID / FUNC_ID stay asserted until the acknowledge **and for
//!   one step after it** (the master needs an edge to observe IO_DONE
//!   before it can deassert). That trailing step is where a stub that
//!   accepts on DATA_IN_VALID alone double-accepts — the runner watches it
//!   for unsolicited acknowledges.
//!
//! Step/observation convention (matches `CompiledDesign`): the design
//! consumes input row `k` at step `k`; `obs_k = eval(S_k, I_k)` is what the
//! master sees while deciding row `k+1`. Violation step numbers are row
//! indices into the recorded trace (rows 0 and 1 are the reset prefix).

use crate::Witness;
use splice_core::{BeatCount, FunctionStub, StubState};
use splice_dataflow::{CompiledDesign, Interp, TWord};
use splice_sis::SisMode;

/// Resolved SIS pin positions of a compiled stub or arbiter module: input
/// *slots* (indices into `CompiledDesign::inputs`) for the master-driven
/// lines, *signal ids* for the observed return lines.
#[derive(Debug, Clone)]
pub struct EnvPins {
    /// RST input slot.
    pub rst: usize,
    /// DATA_IN input slot.
    pub data_in: usize,
    /// DATA_IN_VALID input slot.
    pub valid: usize,
    /// IO_ENABLE input slot.
    pub enable: usize,
    /// FUNC_ID input slot.
    pub func: usize,
    /// IO_DONE signal id.
    pub io_done: usize,
    /// DATA_OUT_VALID signal id.
    pub dov: usize,
    /// CALC_DONE (stub) or CALC_DONE_VEC (arbiter) signal id.
    pub calc_done: Option<usize>,
}

/// Resolve the ten-signal contract's pins on a compiled module. DATA_OUT
/// must be an output port: the X-safety check of every output then covers
/// it whenever DATA_OUT_VALID is asserted.
pub fn resolve_pins(d: &CompiledDesign) -> Result<EnvPins, String> {
    let slot = |name: &str| -> Result<usize, String> {
        d.inputs
            .iter()
            .position(|&id| d.signals[id].name == name)
            .ok_or_else(|| format!("`{}` has no `{name}` input port", d.name))
    };
    let sig = |name: &str| -> Result<usize, String> {
        d.signal_id(name).ok_or_else(|| format!("`{}` has no `{name}` signal", d.name))
    };
    if !d.outputs.iter().any(|&id| d.signals[id].name == "DATA_OUT") {
        return Err(format!("`{}` has no `DATA_OUT` output port", d.name));
    }
    Ok(EnvPins {
        rst: slot("RST")?,
        data_in: slot("DATA_IN")?,
        valid: slot("DATA_IN_VALID")?,
        enable: slot("IO_ENABLE")?,
        func: slot("FUNC_ID")?,
        io_done: sig("IO_DONE")?,
        dov: sig("DATA_OUT_VALID")?,
        calc_done: d.signal_id("CALC_DONE").or_else(|| d.signal_id("CALC_DONE_VEC")),
    })
}

/// One driver-level operation against a single stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Write one beat.
    Write {
        /// The beat value.
        data: u64,
    },
    /// Read one beat (handshaked in pseudo-async, same-step in strict).
    Read,
    /// Poll CALC_DONE until it rises (strictly synchronous reads only).
    Poll,
    /// End of one driver round: drain, then snapshot the register state.
    RoundEnd,
}

/// Derive the driver's transaction script for `stub`: `rounds` complete
/// input→calc→output rounds. `bound_choice` is the element count written
/// for every implicit-bound index parameter (and hence the beat count the
/// *driver* computes for the dynamic transfers it governs).
pub fn stub_script(
    stub: &FunctionStub,
    mode: SisMode,
    bound_choice: u64,
    rounds: usize,
) -> Vec<Op> {
    // Inputs whose runtime value bounds a later dynamic transfer.
    let index_inputs: Vec<usize> = stub
        .states
        .iter()
        .filter_map(|s| match s {
            StubState::Input { beats: BeatCount::Dynamic { index_input, .. }, .. }
            | StubState::Output { beats: BeatCount::Dynamic { index_input, .. }, .. } => {
                Some(*index_input)
            }
            _ => None,
        })
        .collect();
    let beats_of = |beats: &BeatCount| match beats {
        BeatCount::Static(n) => *n,
        BeatCount::Dynamic { shape, .. } => shape.beats(bound_choice),
    };
    let mut ops = Vec::new();
    for _ in 0..rounds {
        for st in &stub.states {
            match st {
                StubState::Input { io, beats, .. } => {
                    let n = beats_of(beats);
                    for b in 0..n {
                        let data = if index_inputs.contains(io) { bound_choice } else { b + 1 };
                        ops.push(Op::Write { data });
                    }
                }
                StubState::Calc => {}
                StubState::Output { beats, .. } => {
                    if mode == SisMode::StrictSync {
                        ops.push(Op::Poll);
                    }
                    for _ in 0..beats_of(beats) {
                        ops.push(Op::Read);
                    }
                }
                StubState::PseudoOutput => {
                    if mode == SisMode::StrictSync {
                        ops.push(Op::Poll);
                    }
                    ops.push(Op::Read);
                }
            }
        }
        ops.push(Op::RoundEnd);
    }
    ops
}

/// Result of one deterministic script run.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The first violation.
    pub violation: Option<Witness>,
    /// Every input row fed to the design, including the two reset rows.
    pub trace: Vec<Vec<u64>>,
}

/// Script run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScriptConfig {
    /// Which SIS protocol variant the master speaks.
    pub mode: SisMode,
    /// Max steps a pseudo-async handshake (or a status poll) may take.
    pub response_bound: u32,
    /// Idle steps inserted between transactions (0..=2 exercised).
    pub pacing: u32,
}

/// FUNC_ID value driven while polling the status register.
pub const STATUS_ID: u64 = 0;

enum Phase {
    Gap(u32),
    WriteWait { data: u64, from: usize, waited: u32 },
    WriteHold,
    ReadWait { from: usize, waited: u32 },
    ReadHold,
    PollWait { from: usize, waited: u32 },
    Drain(u32),
    Done,
}

struct Runner<'a> {
    d: &'a CompiledDesign,
    pins: &'a EnvPins,
    cfg: ScriptConfig,
    my_id: u64,
    /// One interpreter for the whole run, so a row costs no allocation.
    interp: Interp<'a, TWord>,
    state: Vec<TWord>,
    /// Reused buffers for the next register state and the current input row.
    next: Vec<TWord>,
    inputs: Vec<TWord>,
    obs: Vec<TWord>,
    trace: Vec<Vec<u64>>,
    round_ends: Vec<(usize, Vec<TWord>)>,
}

impl Runner<'_> {
    fn row(&self, rst: u64, data: u64, valid: u64, enable: u64, func: u64) -> Vec<u64> {
        let mut r = vec![0u64; self.d.inputs.len()];
        r[self.pins.rst] = rst;
        r[self.pins.data_in] = data;
        r[self.pins.valid] = valid;
        r[self.pins.enable] = enable;
        r[self.pins.func] = func;
        r
    }

    fn idle(&self) -> Vec<u64> {
        self.row(0, 0, 0, 0, 0)
    }

    /// Current step index = index of the last consumed row.
    fn step_idx(&self) -> usize {
        self.trace.len() - 1
    }

    fn apply(&mut self, row: Vec<u64>) {
        let d = self.d;
        self.inputs.clear();
        self.inputs.extend(
            d.inputs
                .iter()
                .enumerate()
                .map(|(slot, &id)| TWord::known(row[slot], d.signals[id].width)),
        );
        self.interp.step(&self.state, &self.inputs, &mut self.next);
        std::mem::swap(&mut self.state, &mut self.next);
        self.obs.clear();
        self.obs.extend_from_slice(self.interp.settle(&self.state, &self.inputs));
        self.trace.push(row);
    }

    fn line(&self, id: usize) -> TWord {
        self.obs[id]
    }

    fn ack_high(&self, id: usize) -> bool {
        self.line(id).is(1)
    }

    /// Acknowledge lines must be silent outside an in-flight transaction.
    fn unsolicited(&self) -> Option<Witness> {
        let signal = if self.ack_high(self.pins.io_done) {
            "IO_DONE"
        } else if self.ack_high(self.pins.dov) {
            "DATA_OUT_VALID"
        } else {
            return None;
        };
        Some(self.unsolicited_ack(signal))
    }

    fn unsolicited_ack(&self, signal: &str) -> Witness {
        Witness::UnsolicitedAck { signal: signal.into(), step: self.step_idx() }
    }

    fn stall(signal: &str, from_step: usize, bound: u32) -> Witness {
        Witness::Stall { signal: signal.into(), from_step, bound }
    }

    fn run(&mut self, ops: &[Op]) -> Option<Witness> {
        // Reset prefix: two cycles with RST asserted, all lines idle.
        for _ in 0..2 {
            let r = self.row(1, 0, 0, 0, 0);
            self.apply(r);
        }
        let mut pc = 0usize;
        let mut phase = Phase::Gap(0);
        // Every wait is bounded, so the run terminates; the cap is a belt
        // against checker bugs, not a property.
        let cap = 64 + ops.len() * (self.cfg.response_bound as usize + 8);
        let eff_write_bound = match self.cfg.mode {
            SisMode::PseudoAsync => self.cfg.response_bound,
            SisMode::StrictSync => 0,
        };
        let eff_read_bound = eff_write_bound;
        for _ in 0..cap {
            // Decide the next row from the current phase + observation.
            let next: Result<(Vec<u64>, Phase), Witness> = match phase {
                Phase::Done => break,
                Phase::Gap(n) => match self.unsolicited() {
                    Some(v) => Err(v),
                    None if n > 0 => Ok((self.idle(), Phase::Gap(n - 1))),
                    None => match self.dispatch(ops, &mut pc) {
                        Some(rp) => Ok(rp),
                        None => Ok((self.idle(), Phase::Done)),
                    },
                },
                Phase::WriteWait { data, from, waited } => {
                    if self.ack_high(self.pins.dov) {
                        Err(self.unsolicited_ack("DATA_OUT_VALID"))
                    } else if self.ack_high(self.pins.io_done) {
                        // Ack observed: the master needs one edge to react,
                        // so the lines stay asserted one more step.
                        Ok((self.row(0, data, 1, 0, self.my_id), Phase::WriteHold))
                    } else if waited >= eff_write_bound {
                        Err(Self::stall("IO_DONE", from, eff_write_bound))
                    } else {
                        Ok((
                            self.row(0, data, 1, 0, self.my_id),
                            Phase::WriteWait { data, from, waited: waited + 1 },
                        ))
                    }
                }
                Phase::WriteHold => match self.unsolicited() {
                    // A second IO_DONE pulse while the master deasserts:
                    // the stub accepted the same beat twice.
                    Some(v) => Err(v),
                    None => Ok((self.idle(), self.gap())),
                },
                Phase::ReadWait { from, waited } => {
                    let served = self.ack_high(self.pins.io_done) && self.ack_high(self.pins.dov);
                    if served {
                        Ok((self.row(0, 0, 0, 0, self.my_id), Phase::ReadHold))
                    } else if waited >= eff_read_bound {
                        let signal =
                            if self.ack_high(self.pins.dov) { "IO_DONE" } else { "DATA_OUT_VALID" };
                        Err(Self::stall(signal, from, eff_read_bound))
                    } else {
                        Ok((
                            self.row(0, 0, 0, 0, self.my_id),
                            Phase::ReadWait { from, waited: waited + 1 },
                        ))
                    }
                }
                Phase::ReadHold => match self.unsolicited() {
                    Some(v) => Err(v),
                    None => Ok((self.idle(), self.gap())),
                },
                Phase::PollWait { from, waited } => {
                    if let Some(v) = self.unsolicited() {
                        // The status register itself answers id-0 reads;
                        // no stub may raise its own acknowledge for them.
                        Err(v)
                    } else if self.calc_done_bit() {
                        match self.dispatch(ops, &mut pc) {
                            Some(rp) => Ok(rp),
                            None => Ok((self.idle(), Phase::Done)),
                        }
                    } else if waited >= self.cfg.response_bound {
                        Err(Self::stall("CALC_DONE", from, self.cfg.response_bound))
                    } else {
                        Ok((
                            self.row(0, 0, 0, 1, STATUS_ID),
                            Phase::PollWait { from, waited: waited + 1 },
                        ))
                    }
                }
                Phase::Drain(n) => match self.unsolicited() {
                    Some(v) => Err(v),
                    None if n > 0 => Ok((self.idle(), Phase::Drain(n - 1))),
                    None => {
                        self.round_ends.push((self.step_idx(), self.state.clone()));
                        pc += 1;
                        match self.dispatch(ops, &mut pc) {
                            Some(rp) => Ok(rp),
                            None => Ok((self.idle(), Phase::Done)),
                        }
                    }
                },
            };
            let (row, next_phase) = match next {
                Ok(rp) => rp,
                Err(w) => return Some(w),
            };
            self.apply(row);
            if let Some(w) = Witness::unknown(self.d, &self.state, &self.obs, self.step_idx()) {
                return Some(w);
            }
            phase = next_phase;
        }
        // Script complete: FSM reusability (round-end states must agree).
        if self.round_ends.len() >= 2 && self.round_ends[0].1 != self.round_ends[1].1 {
            let (first_end, second_end) = (self.round_ends[0].0, self.round_ends[1].0);
            return Some(Witness::RoundMismatch { first_end, second_end });
        }
        None
    }

    /// Emit the first row of the op at `pc` (None when the script is done).
    /// `RoundEnd` turns into a drain so snapshots are taken settled.
    fn dispatch(&self, ops: &[Op], pc: &mut usize) -> Option<(Vec<u64>, Phase)> {
        let op = ops.get(*pc)?;
        let issue = self.step_idx() + 1;
        Some(match *op {
            Op::Write { data } => {
                *pc += 1;
                (
                    self.row(0, data, 1, 1, self.my_id),
                    Phase::WriteWait { data, from: issue, waited: 0 },
                )
            }
            Op::Read => {
                *pc += 1;
                (self.row(0, 0, 0, 1, self.my_id), Phase::ReadWait { from: issue, waited: 0 })
            }
            Op::Poll => {
                *pc += 1;
                (self.row(0, 0, 0, 1, STATUS_ID), Phase::PollWait { from: issue, waited: 0 })
            }
            // pc advances when the drain completes (see Phase::Drain).
            Op::RoundEnd => (self.idle(), Phase::Drain(3)),
        })
    }

    fn gap(&self) -> Phase {
        Phase::Gap(self.cfg.pacing)
    }

    /// This function's CALC_DONE as seen by the polling master. On a stub
    /// module that is the 1-bit CALC_DONE port; when pointed at an arbiter
    /// the master reads bit `my_id` of CALC_DONE_VEC.
    fn calc_done_bit(&self) -> bool {
        let Some(id) = self.pins.calc_done else { return true };
        let v = self.line(id);
        if self.d.signals[id].width == 1 {
            v.is(1)
        } else {
            v.slice(self.my_id as u32, self.my_id as u32).is(1)
        }
    }
}

/// Run `ops` against `d` as the function with FUNC_ID `my_id`.
pub fn run_script(
    d: &CompiledDesign,
    pins: &EnvPins,
    my_id: u64,
    ops: &[Op],
    cfg: ScriptConfig,
) -> ScriptOutcome {
    let mut r = Runner {
        d,
        pins,
        cfg,
        my_id,
        interp: Interp::new(d),
        state: d.initial_state(),
        next: Vec::new(),
        inputs: Vec::new(),
        obs: Vec::new(),
        trace: Vec::new(),
        round_ends: Vec::new(),
    };
    let violation = r.run(ops);
    ScriptOutcome { violation, trace: r.trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_driver::lower::TransferShape;

    fn stub(states: Vec<StubState>) -> FunctionStub {
        FunctionStub {
            name: "f".into(),
            first_func_id: 1,
            instances: 1,
            states,
            trackers: vec![],
            nowait: false,
        }
    }

    #[test]
    fn script_for_simple_function() {
        let s = stub(vec![
            StubState::Input { io: 0, beats: BeatCount::Static(2), ignore_tail_bits: 0 },
            StubState::Calc,
            StubState::Output { beats: BeatCount::Static(1), ignore_tail_bits: 0 },
        ]);
        let ops = stub_script(&s, SisMode::PseudoAsync, 1, 2);
        assert_eq!(
            ops,
            vec![
                Op::Write { data: 1 },
                Op::Write { data: 2 },
                Op::Read,
                Op::RoundEnd,
                Op::Write { data: 1 },
                Op::Write { data: 2 },
                Op::Read,
                Op::RoundEnd,
            ]
        );
    }

    #[test]
    fn strict_sync_polls_before_reading() {
        let s = stub(vec![
            StubState::Input { io: 0, beats: BeatCount::Static(1), ignore_tail_bits: 0 },
            StubState::Calc,
            StubState::PseudoOutput,
        ]);
        let ops = stub_script(&s, SisMode::StrictSync, 1, 1);
        assert_eq!(ops, vec![Op::Write { data: 1 }, Op::Poll, Op::Read, Op::RoundEnd]);
    }

    #[test]
    fn dynamic_transfers_use_driver_side_beat_counts() {
        // `void f(int n, char*:n xs)` on a 32-bit bus: 4 chars per beat.
        let s = stub(vec![
            StubState::Input { io: 0, beats: BeatCount::Static(1), ignore_tail_bits: 0 },
            StubState::Input {
                io: 1,
                beats: BeatCount::Dynamic {
                    index_input: 0,
                    shape: TransferShape::Packed { per_beat: 4 },
                },
                ignore_tail_bits: 0,
            },
            StubState::Calc,
            StubState::PseudoOutput,
        ]);
        let ops = stub_script(&s, SisMode::PseudoAsync, 6, 1);
        // n=6 is written for the index input, then ceil(6/4)=2 array beats —
        // exactly what the generated C driver's WRITE loop sends.
        assert_eq!(
            ops,
            vec![
                Op::Write { data: 6 },
                Op::Write { data: 1 },
                Op::Write { data: 2 },
                Op::Read,
                Op::RoundEnd,
            ]
        );
    }

    #[test]
    fn nowait_scripts_have_no_reads() {
        let mut s = stub(vec![
            StubState::Input { io: 0, beats: BeatCount::Static(1), ignore_tail_bits: 0 },
            StubState::Calc,
        ]);
        s.nowait = true;
        let ops = stub_script(&s, SisMode::PseudoAsync, 1, 1);
        assert_eq!(ops, vec![Op::Write { data: 1 }, Op::RoundEnd]);
    }
}
