//! Counterexample replay in the two-state domain.
//!
//! A counterexample trace found by the static explorer is only trusted
//! after it reproduces on a concrete execution: every trace row is run
//! through the tree-walk interpreter in `splice-dataflow`'s two-state
//! domain ([`TwoState`]): one clock edge, then a settle, on one
//! interpreter kept for the whole run.
//!
//! The replay is **two-state**: every X the ternary checker reasoned about
//! is concretized to a fill bit *at power-on*, and the run is an honest
//! execution of that one universe. Witnesses about unknowns run twice
//! (fill 0 and fill 1) and confirm on divergence.

use crate::{Counterexample, Witness};
use splice_dataflow::flat::DomainValue;
use splice_dataflow::{two_state_initial, CompiledDesign, Interp, TwoState};

/// Replay `trace` against `design` with power-on X bits filled as `fill`.
/// Entry `k` of the returned history holds every flattened signal, settled
/// after the clock edge that consumed row `k` — the observation step `k`
/// of a witness refers to.
pub fn replay(design: &CompiledDesign, trace: &[Vec<u64>], fill: bool) -> Vec<Vec<u64>> {
    if fill {
        replay_in::<true>(design, trace)
    } else {
        replay_in::<false>(design, trace)
    }
}

/// [`replay`] in one fill universe.
fn replay_in<const FILL: bool>(d: &CompiledDesign, trace: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let lift = |ids: &[usize], words: &[u64]| -> Vec<TwoState<FILL>> {
        ids.iter().zip(words).map(|(&id, &v)| TwoState::lit(v, d.signals[id].width)).collect()
    };
    let mut interp = Interp::new(d);
    let mut state = lift(&d.registers, &two_state_initial(d, FILL));
    let mut next = Vec::with_capacity(state.len());
    trace
        .iter()
        .map(|row| {
            let inputs = lift(&d.inputs, row);
            interp.step(&state, &inputs, &mut next);
            std::mem::swap(&mut state, &mut next);
            interp.settle(&state, &inputs).iter().map(|v| v.bits).collect()
        })
        .collect()
}

/// Replay a counterexample and check that its witness reproduces on the
/// concrete execution. Returns true when the violation is confirmed.
pub fn confirm(design: &CompiledDesign, cex: &Counterexample) -> bool {
    let sig = |name: &str| design.signal_id(name);
    match &cex.witness {
        Witness::Stall { signal, from_step, bound } => {
            let h = replay(design, &cex.trace, false);
            let Some(id) = sig(signal) else { return false };
            let end = (*from_step + *bound as usize).min(h.len().saturating_sub(1));
            (*from_step..=end).all(|k| h.get(k).map(|row| row[id] == 0).unwrap_or(false))
        }
        Witness::UnsolicitedAck { signal, step } => {
            let h = replay(design, &cex.trace, false);
            sig(signal).and_then(|id| h.get(*step).map(|row| row[id] == 1)).unwrap_or(false)
        }
        Witness::MutexOverlap { a, b, step, .. } => {
            let h = replay(design, &cex.trace, false);
            match (sig(a), sig(b), h.get(*step)) {
                (Some(a), Some(b), Some(row)) => row[a] == 1 && row[b] == 1,
                _ => false,
            }
        }
        Witness::UnknownValue { signal, step } => {
            // An X is real when the two fill universes can be told apart.
            let h0 = replay(design, &cex.trace, false);
            let h1 = replay(design, &cex.trace, true);
            let Some(id) = sig(signal) else { return false };
            let diverges_at =
                |k: usize| h0.get(k).zip(h1.get(k)).map(|(a, b)| a[id] != b[id]).unwrap_or(false);
            diverges_at(*step) || (0..h0.len()).any(diverges_at)
        }
        Witness::RoundMismatch { first_end, second_end } => {
            let h = replay(design, &cex.trace, false);
            match (h.get(*first_end), h.get(*second_end)) {
                (Some(a), Some(b)) => design.registers.iter().any(|&id| a[id] != b[id]),
                _ => false,
            }
        }
    }
}
