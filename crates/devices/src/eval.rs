//! The chapter 9 experiment engine: Fig 9.2 (clock cycles per run) and
//! Fig 9.3 (FPGA resources) for all five interpolator implementations.
//!
//! §9.2.1's five interfaces:
//!
//! | label               | construction                                        |
//! |---------------------|-----------------------------------------------------|
//! | Simple PLB          | hand-coded, naive (extra ack latency, no bursts)    |
//! | Optimized FCB       | hand-coded, minimal latency, streaming bursts       |
//! | Splice PLB (Simple) | generated, single-word 32-bit PLB transfers         |
//! | Splice FCB          | generated, double/quad FCB transfers                |
//! | Splice PLB (DMA)    | generated, PLB with the DMA engine enabled          |

use crate::baselines::{
    naive_plb_driver_ops, naive_plb_resources, optimized_fcb_driver_ops, optimized_fcb_resources,
    Baseline, BaselineSystem,
};
use crate::interp::{interp_module, reference_result, InterpCalc, Scenario};
use splice_buses::system::SplicedSystem;
use splice_core::elaborate::elaborate;
use splice_resources::{design_cost, ResourceReport};

/// The five implementations of §9.2.1, in the thesis's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterpImpl {
    /// Naive hand-coded PLB interface.
    SimplePlbHand,
    /// Hand-optimized FCB interface.
    OptimizedFcbHand,
    /// Splice-generated minimal PLB interface.
    SplicePlbSimple,
    /// Splice-generated FCB interface (double/quad transfers).
    SpliceFcb,
    /// Splice-generated PLB interface with DMA support.
    SplicePlbDma,
}

impl InterpImpl {
    /// All five, in figure order.
    pub fn all() -> [InterpImpl; 5] {
        [
            InterpImpl::SimplePlbHand,
            InterpImpl::OptimizedFcbHand,
            InterpImpl::SplicePlbSimple,
            InterpImpl::SpliceFcb,
            InterpImpl::SplicePlbDma,
        ]
    }

    /// The figure label.
    pub fn label(&self) -> &'static str {
        match self {
            InterpImpl::SimplePlbHand => "Simple PLB",
            InterpImpl::OptimizedFcbHand => "Optimized FCB",
            InterpImpl::SplicePlbSimple => "Splice PLB (Simple)",
            InterpImpl::SpliceFcb => "Splice FCB",
            InterpImpl::SplicePlbDma => "Splice PLB (DMA)",
        }
    }

    /// Whether the implementation is Splice-generated.
    pub fn is_generated(&self) -> bool {
        !matches!(self, InterpImpl::SimplePlbHand | InterpImpl::OptimizedFcbHand)
    }
}

/// A reusable runner for one implementation.
pub enum InterpRunner {
    /// A hand-coded baseline system.
    Baseline(Box<BaselineSystem>, Baseline),
    /// A Splice-generated system.
    Generated(Box<SplicedSystem>),
}

impl InterpRunner {
    /// Build the runner for an implementation.
    pub fn build(imp: InterpImpl) -> InterpRunner {
        match imp {
            InterpImpl::SimplePlbHand => InterpRunner::Baseline(
                Box::new(BaselineSystem::build(Baseline::SimplePlb)),
                Baseline::SimplePlb,
            ),
            InterpImpl::OptimizedFcbHand => InterpRunner::Baseline(
                Box::new(BaselineSystem::build(Baseline::OptimizedFcb)),
                Baseline::OptimizedFcb,
            ),
            InterpImpl::SplicePlbSimple => {
                let m = interp_module("plb", false);
                InterpRunner::Generated(Box::new(SplicedSystem::build(&m, |_, _| {
                    Box::new(InterpCalc)
                })))
            }
            InterpImpl::SpliceFcb => {
                // "able to facilitate double and quad-word transfers"
                // (§9.2.1): burst support on.
                let src = crate::interp::interp_spec("fcb", false)
                    .replace("%bus_width 32\n", "%bus_width 32\n%burst_support true\n");
                let m = splice_spec::parse_and_validate(&src).expect("fcb spec").module;
                InterpRunner::Generated(Box::new(SplicedSystem::build(&m, |_, _| {
                    Box::new(InterpCalc)
                })))
            }
            InterpImpl::SplicePlbDma => {
                let m = interp_module("plb", true);
                InterpRunner::Generated(Box::new(SplicedSystem::build(&m, |_, _| {
                    Box::new(InterpCalc)
                })))
            }
        }
    }

    /// Run one scenario; returns (bus cycles, result word).
    pub fn run(&mut self, s: Scenario) -> (u64, u64) {
        match self {
            InterpRunner::Baseline(sys, which) => {
                let ops = match which {
                    Baseline::SimplePlb => naive_plb_driver_ops(&s.flat_inputs()),
                    Baseline::OptimizedFcb => optimized_fcb_driver_ops(&s.flat_inputs()),
                };
                let (cycles, reads) = sys.run_bus_ops(ops);
                (cycles, reads[0])
            }
            InterpRunner::Generated(sys) => {
                let out = sys.call("interpolate", &s.call_args()).expect("interp call");
                (out.bus_cycles, out.result[0])
            }
        }
    }

    /// The underlying simulator (metrics, trace access).
    pub fn sim(&self) -> &splice_sim::Simulator {
        match self {
            InterpRunner::Baseline(sys, _) => sys.sim(),
            InterpRunner::Generated(sys) => sys.sim(),
        }
    }

    /// Mutable simulator access (enable metrics before running).
    pub fn sim_mut(&mut self) -> &mut splice_sim::Simulator {
        match self {
            InterpRunner::Baseline(sys, _) => sys.sim_mut(),
            InterpRunner::Generated(sys) => sys.sim_mut(),
        }
    }
}

/// Run one (implementation, scenario) cell of Fig 9.2, checking the result
/// against the reference computation.
pub fn run_cycles(imp: InterpImpl, s: Scenario) -> u64 {
    let mut runner = InterpRunner::build(imp);
    let (cycles, result) = runner.run(s);
    assert_eq!(result, reference_result(s), "{imp:?} {s:?} wrong result");
    cycles
}

/// The full Fig 9.2 dataset: cycles per run, per implementation, per
/// scenario.
pub fn fig_9_2() -> Vec<(InterpImpl, [u64; 4])> {
    InterpImpl::all()
        .into_iter()
        .map(|imp| {
            let mut runner = InterpRunner::build(imp);
            let mut row = [0u64; 4];
            for (i, s) in Scenario::all().into_iter().enumerate() {
                let (cycles, result) = runner.run(s);
                assert_eq!(result, reference_result(s), "{imp:?} {s:?}");
                row[i] = cycles;
            }
            (imp, row)
        })
        .collect()
}

/// The resource bill of one implementation (Fig 9.3).
pub fn resources(imp: InterpImpl) -> ResourceReport {
    match imp {
        InterpImpl::SimplePlbHand => naive_plb_resources(),
        InterpImpl::OptimizedFcbHand => optimized_fcb_resources(),
        InterpImpl::SplicePlbSimple => design_cost(&elaborate(&interp_module("plb", false))),
        InterpImpl::SpliceFcb => {
            let src = crate::interp::interp_spec("fcb", false)
                .replace("%bus_width 32\n", "%bus_width 32\n%burst_support true\n");
            let m = splice_spec::parse_and_validate(&src).expect("fcb spec").module;
            design_cost(&elaborate(&m))
        }
        InterpImpl::SplicePlbDma => design_cost(&elaborate(&interp_module("plb", true))),
    }
}

/// The full Fig 9.3 dataset.
pub fn fig_9_3() -> Vec<(InterpImpl, ResourceReport)> {
    InterpImpl::all().into_iter().map(|imp| (imp, resources(imp))).collect()
}

/// Percentage by which `a` beats `b` in total cycles across all scenarios
/// (positive = `a` is faster).
pub fn speedup_pct(rows: &[(InterpImpl, [u64; 4])], a: InterpImpl, b: InterpImpl) -> f64 {
    let total = |imp: InterpImpl| -> f64 {
        rows.iter()
            .find(|(i, _)| *i == imp)
            .map(|(_, r)| r.iter().sum::<u64>() as f64)
            .expect("implementation present")
    };
    let (ta, tb) = (total(a), total(b));
    (tb - ta) / tb * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_computes_the_reference_result() {
        // run_cycles asserts result correctness internally.
        for imp in InterpImpl::all() {
            run_cycles(imp, Scenario::S1);
        }
    }

    #[test]
    fn cycles_grow_with_scenario_size() {
        for (imp, row) in fig_9_2() {
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "{imp:?}: cycles must grow with inputs: {row:?}"
            );
        }
    }

    #[test]
    fn fig_9_2_headline_shapes() {
        use InterpImpl::*;
        let rows = fig_9_2();

        // "the Splice-generated simple PLB Interface is approximately 25%
        // faster than the naive hand-coded implementation" (§9.3.1).
        let splice_vs_naive = speedup_pct(&rows, SplicePlbSimple, SimplePlbHand);
        assert!(
            (10.0..45.0).contains(&splice_vs_naive),
            "Splice PLB vs naive PLB: {splice_vs_naive:.1}% (paper: ~25%)\n{rows:?}"
        );

        // "the Splice-generated FCB interface is approximately 43% faster
        // than the naive PLB implementation".
        let fcb_vs_naive = speedup_pct(&rows, SpliceFcb, SimplePlbHand);
        assert!(
            (25.0..60.0).contains(&fcb_vs_naive),
            "Splice FCB vs naive PLB: {fcb_vs_naive:.1}% (paper: ~43%)\n{rows:?}"
        );

        // "... and only 13% slower than an optimized hand-coded FCB".
        let fcb_vs_opt = speedup_pct(&rows, OptimizedFcbHand, SpliceFcb);
        assert!(
            (0.0..30.0).contains(&fcb_vs_opt),
            "optimized FCB vs Splice FCB: {fcb_vs_opt:.1}% (paper: ~13%)\n{rows:?}"
        );

        // "DMA transactions ... representing only a 1-4% performance
        // increase versus a non-DMA implementation" — small effect either
        // way, never a blowout.
        let dma_vs_simple = speedup_pct(&rows, SplicePlbDma, SplicePlbSimple);
        assert!(
            (-5.0..15.0).contains(&dma_vs_simple),
            "DMA vs simple PLB: {dma_vs_simple:.1}% (paper: +1-4%)\n{rows:?}"
        );
    }

    #[test]
    fn fig_9_3_headline_shapes() {
        use InterpImpl::*;
        let res = fig_9_3();
        let slices = |imp: InterpImpl| {
            res.iter().find(|(i, _)| *i == imp).unwrap().1.total().slices() as f64
        };

        // "the Splice-generated simple PLB interface consumes about 23%
        // less FPGA resources than the naive hand-coded implementation".
        let saving = (slices(SimplePlbHand) - slices(SplicePlbSimple)) / slices(SimplePlbHand);
        assert!(
            (0.05..0.45).contains(&saving),
            "Splice PLB saves {:.0}% vs naive (paper ~23%)",
            saving * 100.0
        );

        // "the Splice-generated FCB interface requires ... only around 2%
        // more resources than an optimized hand-coded FCB interconnect" —
        // near parity.
        let ratio = slices(SpliceFcb) / slices(OptimizedFcbHand);
        assert!(
            (0.85..1.35).contains(&ratio),
            "Splice FCB / optimized FCB = {ratio:.2} (paper ~1.02)"
        );

        // "the DMA-supporting interface requires anywhere from 57-69% more
        // FPGA resources ... than the otherwise identical simple PLB".
        let dma_ratio = slices(SplicePlbDma) / slices(SplicePlbSimple);
        assert!((1.3..2.2).contains(&dma_ratio), "DMA / simple = {dma_ratio:.2} (paper 1.57-1.69)");
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = InterpImpl::all().iter().map(|i| i.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
