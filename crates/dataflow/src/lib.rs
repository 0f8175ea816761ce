//! # splice-dataflow — value analysis over generated HDL
//!
//! This crate owns the single flattening path from HDL module ASTs to an
//! executable transition relation ([`flat::CompiledDesign`]) and runs it
//! under two value domains:
//!
//! * the concrete ternary domain [`tv::TWord`] (bits over {0, 1, X}),
//!   which `splice-check` uses for exhaustive BFS model checking;
//! * the abstract product domain [`domain::AbsVal`] — ternary known-bits ×
//!   unsigned interval × possibly-uninitialized (X-taint) mask — which the
//!   fixed-point [`engine`] uses to prove facts about *all* reachable
//!   states at once.
//!
//! The engine's results are packaged as a [`facts::FactTable`]
//! (per-signal post-reset constancy, X-taint and output-reachability)
//! consumed by the SL05xx lint rules in `splice-lint`. The model checker
//! explores the compiled relation exactly as generated.
//!
//! A third domain backs concrete execution: [`lower`] fixes every X to a
//! concrete fill bit ([`lower::TwoState`]) and compiles the design into a
//! bit-packed straight-line step function ([`lower::StepFn`]), on which
//! the model checker replays its counterexamples.

pub mod domain;
pub mod engine;
pub mod facts;
pub mod flat;
pub mod graph;
pub mod lower;
pub mod timing;
pub mod tv;

pub use domain::AbsVal;
pub use engine::{analyze, Analysis, BranchFinding, FindingKind};
pub use facts::{FactTable, SignalFacts};
pub use flat::{CompileError, CompiledDesign, Interp, Kind, SignalInfo};
pub use lower::{two_state_eval, two_state_initial, two_state_step, StepFn, TwoState};
pub use timing::{analyze_timing, Endpoint, EndpointKind, Timing};
pub use tv::TWord;
