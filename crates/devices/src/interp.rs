//! The chapter 9 linear interpolator (Scan Eagle UAV substitution).
//!
//! The thesis evaluates Splice on "a linear interpolator that is used
//! within the Scan Eagle UAV to approximate continuous flight control data
//! ... from a set of time-valued samples" (§9.1). The real device is
//! proprietary; the thesis deliberately withholds its internals ("the
//! exact meanings of these values are not important ... the amount of
//! calculation done in each implementation is constant", §9.2). What the
//! comparison needs — and what this clean-room device preserves — is:
//!
//! 1. the four usage scenarios with the Fig 9.1 input pattern
//!    (three sets of 2/1/2, 4/2/4, 8/3/6, 16/4/8 words);
//! 2. calculation logic that "runs in a predictable manner and requires
//!    the same numbers of clock cycles to produce results each time";
//! 3. one word of output per run;
//! 4. three separate input arrays, so no single burst/DMA transaction can
//!    cover a whole run.

use splice_core::simbuild::{CalcLogic, CalcResult, FuncInputs};
use splice_driver::program::{CallArgs, CallValue};
use splice_spec::parse_and_validate;
use splice_spec::validate::ModuleSpec;

/// Fixed calculation latency of every interpolator implementation
/// (requirement 2 above).
pub const INTERP_CALC_CYCLES: u32 = 16;

/// One usage scenario of the interpolator (Fig 9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scenario {
    /// Sets of 2 / 1 / 2 inputs (5 total).
    S1,
    /// Sets of 4 / 2 / 4 inputs (10 total).
    S2,
    /// Sets of 8 / 3 / 6 inputs (16 total).
    S3,
    /// Sets of 16 / 4 / 8 inputs (28 total).
    S4,
}

impl Scenario {
    /// All four scenarios in order.
    pub fn all() -> [Scenario; 4] {
        [Scenario::S1, Scenario::S2, Scenario::S3, Scenario::S4]
    }

    /// 1-based scenario number.
    pub fn number(&self) -> u32 {
        match self {
            Scenario::S1 => 1,
            Scenario::S2 => 2,
            Scenario::S3 => 3,
            Scenario::S4 => 4,
        }
    }

    /// The (set 1, set 2, set 3) input counts — the Fig 9.1 table rows.
    pub fn set_sizes(&self) -> (u32, u32, u32) {
        match self {
            Scenario::S1 => (2, 1, 2),
            Scenario::S2 => (4, 2, 4),
            Scenario::S3 => (8, 3, 6),
            Scenario::S4 => (16, 4, 8),
        }
    }

    /// Total input words (Fig 9.1's "Total" column).
    pub fn total_inputs(&self) -> u32 {
        let (a, b, c) = self.set_sizes();
        a + b + c
    }

    /// Deterministic input data for this scenario: time samples, sample
    /// values and control points with recognisable patterns.
    pub fn input_data(&self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let (n1, n2, n3) = self.set_sizes();
        let s1 = (0..n1 as u64).map(|i| 100 + 10 * i).collect(); // sample times
        let s2 = (0..n2 as u64).map(|i| 1_000 + 37 * i).collect(); // sample values
        let s3 = (0..n3 as u64).map(|i| 7 + 3 * i).collect(); // control points
        (s1, s2, s3)
    }

    /// The driver arguments for the Splice-generated interpolator.
    pub fn call_args(&self) -> CallArgs {
        let (n1, n2, n3) = self.set_sizes();
        let (s1, s2, s3) = self.input_data();
        CallArgs::new(vec![
            CallValue::Scalar(n1 as u64),
            CallValue::Array(s1),
            CallValue::Scalar(n2 as u64),
            CallValue::Array(s2),
            CallValue::Scalar(n3 as u64),
            CallValue::Array(s3),
        ])
    }

    /// All input words flattened in bus-transfer order (for hand-coded
    /// baseline drivers, which stream the same data).
    pub fn flat_inputs(&self) -> Vec<u64> {
        let (n1, n2, n3) = self.set_sizes();
        let (s1, s2, s3) = self.input_data();
        let mut v = Vec::with_capacity(self.total_inputs() as usize + 3);
        v.push(n1 as u64);
        v.extend(s1);
        v.push(n2 as u64);
        v.extend(s2);
        v.push(n3 as u64);
        v.extend(s3);
        v
    }
}

/// The Splice specification of the interpolator: one function using
/// implicit pointer declarations for all three datasets ("makes use of
/// implicit pointer declarations to transfer the required number of values
/// from each of the three datasets depending on the scenario", §9.2.1).
pub fn interp_spec(bus: &str, dma: bool) -> String {
    let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
    let dma_dir = if dma { "%dma_support true\n" } else { "" };
    let caret = if dma { "^" } else { "" };
    format!(
        "%device_name interp\n%target_hdl vhdl\n%bus_type {bus}\n%bus_width 32\n{base}{dma_dir}\
         long interpolate(int n1, int*:n1{caret} s1, int n2, int*:n2{caret} s2, int n3, int*:n3{caret} s3);\n"
    )
}

/// Parse + validate the interpolator module for a bus.
pub fn interp_module(bus: &str, dma: bool) -> ModuleSpec {
    parse_and_validate(&interp_spec(bus, dma)).expect("interp spec validates").module
}

/// The interpolation computation itself (requirement: deterministic,
/// constant-cycle). Piecewise-linear blend of the sample values at the
/// control points, accumulated into one 32-bit word.
pub fn interpolate(s1: &[u64], s2: &[u64], s3: &[u64]) -> u64 {
    if s1.is_empty() || s2.is_empty() {
        return 0;
    }
    let mut acc: u64 = 0;
    for (k, &t) in s3.iter().enumerate() {
        // Index the sample tables modulo their lengths: a bounded,
        // branch-predictable access pattern like the fixed hardware ROM
        // lookup the real device performs.
        let i0 = (t as usize) % s1.len();
        let i1 = (t as usize + 1) % s1.len();
        let x0 = s1[i0];
        let x1 = s1[i1];
        let y0 = s2[(t as usize) % s2.len()];
        let y1 = s2[(t as usize + 1) % s2.len()];
        // Fixed-point linear interpolation with an 8-bit fraction.
        let frac = ((t << 3) + k as u64) & 0xFF;
        let span = y1.wrapping_sub(y0);
        let lerp = y0.wrapping_add((span.wrapping_mul(frac)) >> 8);
        acc = acc.wrapping_add(lerp ^ (x0.wrapping_add(x1) << 1));
    }
    acc & 0xFFFF_FFFF
}

/// Reference result for a scenario (what every implementation must return).
pub fn reference_result(s: Scenario) -> u64 {
    let (s1, s2, s3) = s.input_data();
    interpolate(&s1, &s2, &s3)
}

/// The interpolator's user calculation logic for Splice-generated stubs.
#[derive(Debug, Default, Clone, Copy)]
pub struct InterpCalc;

impl CalcLogic for InterpCalc {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        // Inputs arrive as (n1, s1, n2, s2, n3, s3) per the declaration.
        let s1 = inputs.array(1);
        let s2 = inputs.array(3);
        let s3 = inputs.array(5);
        CalcResult { cycles: INTERP_CALC_CYCLES, output: vec![interpolate(s1, s2, s3)] }
    }

    fn name(&self) -> &str {
        "linear-interpolator"
    }
}

/// Calculation callback for hand-coded baselines: the same computation
/// over a flat word stream `[n1, s1.., n2, s2.., n3, s3..]`.
pub fn interpolate_flat(words: &[u64]) -> u64 {
    let mut idx = 0;
    let mut take = |_: ()| -> Vec<u64> {
        if idx >= words.len() {
            return Vec::new();
        }
        let n = words[idx] as usize;
        idx += 1;
        let end = (idx + n).min(words.len());
        let out = words[idx..end].to_vec();
        idx = end;
        out
    };
    let s1 = take(());
    let s2 = take(());
    let s3 = take(());
    interpolate(&s1, &s2, &s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_buses::system::SplicedSystem;

    #[test]
    fn fig_9_1_input_parameters() {
        // The Fig 9.1 table, exactly.
        let rows: Vec<(u32, (u32, u32, u32), u32)> =
            Scenario::all().iter().map(|s| (s.number(), s.set_sizes(), s.total_inputs())).collect();
        assert_eq!(
            rows,
            vec![
                (1, (2, 1, 2), 5),
                (2, (4, 2, 4), 10),
                (3, (8, 3, 6), 17), // the thesis prints "16" but its own sets sum to 17
                (4, (16, 4, 8), 28),
            ]
        );
    }

    #[test]
    fn interpolation_is_deterministic_and_scenario_sensitive() {
        let r: Vec<u64> = Scenario::all().iter().map(|&s| reference_result(s)).collect();
        assert_eq!(r, Scenario::all().iter().map(|&s| reference_result(s)).collect::<Vec<_>>());
        // All four scenarios produce distinct results (sanity of data).
        let mut sorted = r.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "{r:?}");
    }

    #[test]
    fn flat_and_structured_inputs_agree() {
        for s in Scenario::all() {
            assert_eq!(interpolate_flat(&s.flat_inputs()), reference_result(s), "{s:?}");
        }
    }

    #[test]
    fn spec_validates_on_plb_and_fcb() {
        let plb = interp_module("plb", false);
        assert_eq!(plb.functions.len(), 1);
        assert_eq!(plb.functions[0].inputs.len(), 6);
        let fcb = interp_module("fcb", false);
        assert!(!fcb.params.bus.memory_mapped);
        let dma = interp_module("plb", true);
        assert!(dma.functions[0].inputs.iter().any(|io| io.dma));
    }

    #[test]
    fn splice_generated_interpolator_returns_reference_results() {
        let m = interp_module("plb", false);
        let mut sys = SplicedSystem::build(&m, |_, _| Box::new(InterpCalc));
        for s in Scenario::all() {
            let out = sys.call("interpolate", &s.call_args()).unwrap();
            assert_eq!(out.result, vec![reference_result(s)], "{s:?}");
        }
    }

    #[test]
    fn interp_runs_on_the_fcb_too() {
        let m = interp_module("fcb", false);
        let mut sys = SplicedSystem::build(&m, |_, _| Box::new(InterpCalc));
        let s = Scenario::S2;
        let out = sys.call("interpolate", &s.call_args()).unwrap();
        assert_eq!(out.result, vec![reference_result(s)]);
    }

    #[test]
    fn dma_variant_matches_simple_variant_results() {
        let m = interp_module("plb", true);
        let mut sys = SplicedSystem::build(&m, |_, _| Box::new(InterpCalc));
        for s in Scenario::all() {
            let out = sys.call("interpolate", &s.call_args()).unwrap();
            assert_eq!(out.result, vec![reference_result(s)], "{s:?}");
        }
    }

    #[test]
    fn empty_sets_interpolate_to_zero() {
        assert_eq!(interpolate(&[], &[1], &[2]), 0);
        assert_eq!(interpolate(&[1], &[], &[2]), 0);
    }
}
