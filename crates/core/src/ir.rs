//! The design intermediate representation.
//!
//! One [`DesignIr`] captures everything chapter 5 says the tool generates:
//! the per-function user-logic stubs with their ICOB state sequences,
//! whose beat counts size the tracking registers (§5.3), the arbitration
//! entries (§5.2), and the interface configuration (§5.1). HDL emission,
//! simulation and resource estimation all walk this structure.

use splice_driver::lower::TransferShape;
use splice_spec::validate::{ModuleSpec, ValidatedFunction, ValidatedIo};

/// How many bus beats one ICOB state handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeatCount {
    /// Known at generation time (explicit bounds, scalars, splits).
    Static(u64),
    /// Determined at run time from the value of an earlier input (implicit
    /// bounds): the stub instantiates a storage register + comparator to
    /// track it (§5.3.1).
    Dynamic {
        /// Index of the input whose runtime value gives the element count.
        index_input: usize,
        /// How elements map onto beats.
        shape: TransferShape,
    },
}

/// One state of the Input-Calculation-Output Block (§5.3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubState {
    /// Receive the beats of input `io` (index into the function's inputs).
    Input {
        /// Which declared input this state serves.
        io: usize,
        /// Beats to accept.
        beats: BeatCount,
        /// Trailing bits of the final beat that carry no data (packed/split
        /// transfers that do not fill an integral number of beats; the
        /// generated comment of §5.3.1 tells the user they are ignorable).
        ignore_tail_bits: u32,
    },
    /// The user-fillable calculation state ("a single calculation stage is
    /// initially left blank for the end-user to fill in").
    Calc,
    /// Produce the output beats.
    Output {
        /// Beats to produce.
        beats: BeatCount,
        /// Unused trailing bits of the final beat.
        ignore_tail_bits: u32,
    },
    /// The pseudo output state of a blocking `void` function: one dummy
    /// beat that lets the driver block until completion (§5.3.1).
    PseudoOutput,
}

impl BeatCount {
    /// The width of the beat counter a transfer of this count needs on a
    /// `bus_width`-bit bus (§5.3.1's tracking register), or `None` for a
    /// single beat, which needs no counter. Split scalars are counted too:
    /// the user reassembles them by beat index (§3.1.4). A runtime count
    /// also latches its bound, in beats, into a storage register of the
    /// same width. That bound is read from one bus word, so the transfer
    /// moves at most 2^`bus_width` − 1 elements, and at most 65,535 beats.
    pub fn counter_bits(self, bus_width: u32) -> Option<u32> {
        match self {
            BeatCount::Static(n) => (n > 1).then(|| bits_for(n)),
            BeatCount::Dynamic { shape, .. } => {
                let per_elem = match shape {
                    TransferShape::Split { beats_per_elem } => beats_per_elem.trailing_zeros(),
                    TransferShape::Direct | TransferShape::Packed { .. } => 0,
                };
                Some((bus_width + per_elem).min(16))
            }
        }
    }
}

impl StubState {
    /// The beats an input or output state moves; `None` for the
    /// calculation and pseudo-output states.
    pub fn beats(&self) -> Option<BeatCount> {
        match self {
            StubState::Input { beats, .. } | StubState::Output { beats, .. } => Some(*beats),
            StubState::Calc | StubState::PseudoOutput => None,
        }
    }

    /// The declared input or output of `f` (the stub's own function) that
    /// this state moves; `None` for the calculation and pseudo-output
    /// states.
    pub fn io<'a>(&self, f: &'a ValidatedFunction) -> Option<&'a ValidatedIo> {
        match self {
            StubState::Input { io, .. } => Some(&f.inputs[*io]),
            StubState::Output { .. } => f.output.as_ref(),
            StubState::Calc | StubState::PseudoOutput => None,
        }
    }
}

/// One generated user-logic stub (one per declaration; instances share the
/// stub entity and are replicated by the arbiter, §5.2). Its name, FUNC_ID
/// range, instance count and `nowait` flag belong to its function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionStub {
    /// ICOB state sequence: inputs in declaration order, then Calc, then
    /// the output or pseudo-output state (none for `nowait`).
    pub states: Vec<StubState>,
}

impl FunctionStub {
    /// Number of ICOB states (drives the state-register width).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Bits needed for the state register.
    pub fn state_bits(&self) -> u32 {
        let n = self.state_count().max(2) as u32;
        32 - (n - 1).leading_zeros()
    }

    /// The index of the Calc state within `states`.
    pub fn calc_state_index(&self) -> Option<usize> {
        self.states.iter().position(|s| matches!(s, StubState::Calc))
    }

    /// Whether this stub can ever pulse a completion IRQ under
    /// `%irq_support`: nowait functions pulse in the Calc state, output
    /// functions on the final result beat. A blocking `void` function
    /// completes through the pseudo-output handshake with no pulse, so
    /// giving it an IRQ port (and latching its line) would be provably
    /// dead logic.
    pub fn fires_irq(&self) -> bool {
        !matches!(self.states.last(), Some(StubState::PseudoOutput))
    }
}

/// The complete generated design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignIr {
    /// The validated specification this design was elaborated from.
    pub module: ModuleSpec,
    /// One stub per declaration: `stubs[i]` is the stub of
    /// `module.functions[i]`.
    pub stubs: Vec<FunctionStub>,
}

impl DesignIr {
    /// Width of the FUNC_ID field.
    pub fn func_id_width(&self) -> u32 {
        self.module.params.func_id_width
    }

    /// Each validated function with its stub, in declaration order.
    pub fn functions(&self) -> impl Iterator<Item = (&ValidatedFunction, &FunctionStub)> {
        self.module.functions.iter().zip(&self.stubs)
    }

    /// The generation notes surfaced to the user: one per transfer whose
    /// final beat carries padding the hardware can ignore (§5.3.1).
    pub fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        for (f, stub) in self.functions() {
            for st in &stub.states {
                let tail = match st {
                    StubState::Input { ignore_tail_bits, .. }
                    | StubState::Output { ignore_tail_bits, .. } => *ignore_tail_bits,
                    StubState::Calc | StubState::PseudoOutput => 0,
                };
                if let Some(io) = st.io(f).filter(|_| tail > 0) {
                    notes.push(format!(
                        "`{}`: the final beat of `{}` carries {tail} bit(s) of padding that \
                         the hardware can safely ignore",
                        f.name, io.name
                    ));
                }
            }
        }
        notes
    }

    /// All (function index, instance, func_id) triples in id order — the
    /// arbiter's connection table (§5.2).
    pub fn arbiter_entries(&self) -> Vec<(usize, u32, u32)> {
        let mut out = Vec::new();
        for (si, f) in self.module.functions.iter().enumerate() {
            for k in 0..f.instances {
                out.push((si, k, f.first_func_id + k));
            }
        }
        out
    }
}

/// Bits needed to hold the value `n` (at least one).
pub fn bits_for(n: u64) -> u32 {
    64 - n.max(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(n_states: usize) -> FunctionStub {
        FunctionStub {
            states: (0..n_states)
                .map(|i| StubState::Input {
                    io: i,
                    beats: BeatCount::Static(1),
                    ignore_tail_bits: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn state_bits_sizing() {
        assert_eq!(stub(2).state_bits(), 1);
        assert_eq!(stub(3).state_bits(), 2);
        assert_eq!(stub(4).state_bits(), 2);
        assert_eq!(stub(5).state_bits(), 3);
        // Degenerate 1-state stubs still get a 1-bit register.
        assert_eq!(stub(1).state_bits(), 1);
    }
}
