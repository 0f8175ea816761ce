//! # splice-sis — the Splice Interface Standard
//!
//! Chapter 4 of the thesis defines the SIS: a ten-signal intermediate
//! interface between a native system bus and Splice-generated user logic.
//! "All user-level logic stubs generated by the tool implement the protocols
//! of the SIS" — native bus adapters translate their bus's signalling into
//! these ten signals, and everything downstream is bus-independent.
//!
//! This crate provides:
//!
//! * [`signals`] — the signal inventory of Fig 4.2 and helpers to declare a
//!   wired SIS inside a `splice-sim` simulation;
//! * [`protocol`] — the pseudo-asynchronous (§4.2.1) and strictly-synchronous
//!   (§4.2.2) transfer protocols, plus a scripted [`protocol::SisMaster`]
//!   component used to exercise user logic without any native bus;
//! * [`checker`] — a conformance monitor that watches a running SIS and
//!   records violations of the protocol axioms;
//! * [`waves`] — ASCII timing-diagram rendering, regenerating the thesis's
//!   Figs 4.3/4.4 style diagrams from simulation traces.

pub mod checker;
pub mod protocol;
pub mod signals;
pub mod waves;

pub use protocol::{SisMaster, SisOp};
pub use signals::{SisBus, SisFuncPort, SisSignal, STATUS_FUNC_ID};
