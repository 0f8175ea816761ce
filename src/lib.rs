//! # Splice — a standardized peripheral logic and interface creation engine
//!
//! A full Rust reproduction of *Splice* (Justin Thiel, Washington
//! University in St. Louis, WUCSE-2007-22): a code-generation tool that
//! turns C-prototype-style interface declarations into bus-independent
//! peripheral hardware (VHDL/Verilog), matching ANSI-C drivers, and — in
//! this reproduction — a cycle-accurate simulation of the whole system,
//! because the original evaluation hardware (Virtex-4/PPC405 boards) is
//! replaced by simulated buses.
//!
//! ## The pipeline
//!
//! ```text
//!  spec text ─▶ splice_spec ─▶ splice_core::elaborate ─▶ DesignIr
//!                                   │                        │
//!                  HDL text ◀── hdlgen/template       simbuild ──▶ live components
//!                  C drivers ◀── splice_driver               │
//!                                                    splice_buses::SplicedSystem
//! ```
//!
//! ## Quick start
//!
//! ```
//! use splice::prelude::*;
//!
//! // 1. Describe the interface in the Splice syntax (thesis ch. 3).
//! let spec = "
//!     %device_name adder
//!     %bus_type plb
//!     %bus_width 32
//!     %base_address 0x80000000
//!     long add2(int a, int b);
//! ";
//! let module = splice::parse_and_validate(spec).unwrap().module;
//!
//! // 2. Bring the generated design to life with user calculation logic.
//! struct Add;
//! impl CalcLogic for Add {
//!     fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
//!         CalcResult { cycles: 1, output: vec![inputs.scalar(0) + inputs.scalar(1)] }
//!     }
//! }
//! let mut system = SplicedSystem::build(&module, |_, _| Box::new(Add));
//!
//! // 3. Call it through the generated driver, over the simulated PLB.
//! let out = system.call("add2", &CallArgs::scalars(&[40, 2])).unwrap();
//! assert_eq!(out.result, vec![42]);
//! ```
//!
//! See the crate-level docs of each member for the subsystem detail:
//! [`splice_spec`], [`splice_core`], [`splice_hdl`], [`splice_driver`],
//! [`splice_sis`], [`splice_sim`], [`splice_buses`], [`splice_resources`],
//! [`splice_devices`], [`splice_lint`].

pub mod pipeline;
pub mod timing;

pub use splice_buses as buses;
pub use splice_check as check;
pub use splice_core as core_engine;
pub use splice_devices as devices;
pub use splice_driver as driver;
pub use splice_hdl as hdl;
pub use splice_lint as lint;
pub use splice_obs as obs;
pub use splice_resources as resources;
pub use splice_sim as sim;
pub use splice_sis as sis;
pub use splice_spec as spec;

pub use pipeline::{run_pipeline, PipelineError, PipelineOptions, PipelineOutput};
pub use splice_spec::{parse, parse_and_validate};
pub use timing::{timing_report, ModuleTiming, PathReport, TimingReport};

/// The names most programs need.
pub mod prelude {
    pub use splice_buses::system::{CallOutcome, SplicedSystem};
    pub use splice_core::elaborate::elaborate;
    pub use splice_core::simbuild::{CalcLogic, CalcResult, DefaultCalc, FuncInputs};
    pub use splice_driver::program::{CallArgs, CallValue};
    pub use splice_spec::parse_and_validate;
}
