//! The design intermediate representation.
//!
//! One [`DesignIr`] captures everything chapter 5 says the tool generates:
//! the per-function user-logic stubs with their ICOB state sequences and
//! tracking registers (§5.3), the arbitration entries (§5.2), and the
//! interface configuration (§5.1). HDL emission, simulation and resource
//! estimation all walk this structure.

use splice_driver::lower::TransferShape;
use splice_spec::validate::ModuleSpec;

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

/// A tracking-register/comparator group instantiated for array transfers
/// (§5.3.1: "a tracking register and comparator are instantiated ...; for
/// implicit array transfers, both tracking and storage registers are
/// defined along with a comparator").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracker {
    /// The I/O this tracker counts beats for.
    pub for_io: String,
    /// Width of the beat counter.
    pub counter_bits: u32,
    /// Whether a storage register for the dynamic bound is present
    /// (implicit transfers only).
    pub has_storage: bool,
    /// Width of the bound comparator.
    pub comparator_bits: u32,
}

/// One generated user-logic stub (one per declaration; instances share the
/// stub entity and are replicated by the arbiter, §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionStub {
    /// Function name (`func_<name>` file, Fig 8.3).
    pub name: String,
    /// First FUNC_ID; instance `k` answers to `first_func_id + k`.
    pub first_func_id: u32,
    /// Hardware copies to instantiate.
    pub instances: u32,
    /// ICOB state sequence: inputs in declaration order, then Calc, then
    /// the output (or pseudo-output) state.
    pub states: Vec<StubState>,
    /// Tracking registers.
    pub trackers: Vec<Tracker>,
    /// Whether the function is `nowait` (no output state at all).
    pub nowait: bool,
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
        self.nowait || self.states.iter().any(|s| matches!(s, StubState::Output { .. }))
    }
}

/// The complete generated design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignIr {
    /// The validated specification this design was elaborated from.
    pub module: ModuleSpec,
    /// One stub per declaration.
    pub stubs: Vec<FunctionStub>,
    /// Generation notes surfaced to the user (trailing-bit warnings etc.);
    /// also embedded as comments in the generated HDL.
    pub notes: Vec<String>,
}

impl DesignIr {
    /// Total function instances (the arbiter's fan-in; id 0 excluded).
    pub fn total_instances(&self) -> u32 {
        self.stubs.iter().map(|s| s.instances).sum()
    }

    /// Width of the FUNC_ID field.
    pub fn func_id_width(&self) -> u32 {
        self.module.params.func_id_width
    }

    /// Find a stub by function name.
    pub fn stub(&self, name: &str) -> Option<&FunctionStub> {
        self.stubs.iter().find(|s| s.name == name)
    }

    /// All (stub index, instance, func_id) triples in id order — the
    /// arbiter's connection table (§5.2).
    pub fn arbiter_entries(&self) -> Vec<(usize, u32, u32)> {
        let mut out = Vec::new();
        for (si, stub) in self.stubs.iter().enumerate() {
            for k in 0..stub.instances {
                out.push((si, k, stub.first_func_id + k));
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
            name: "f".into(),
            first_func_id: 1,
            instances: 1,
            states: (0..n_states)
                .map(|i| StubState::Input {
                    io: i,
                    beats: BeatCount::Static(1),
                    ignore_tail_bits: 0,
                })
                .collect(),
            trackers: vec![],
            nowait: false,
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
