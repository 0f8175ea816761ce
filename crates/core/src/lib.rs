//! # splice-core — the Splice generation engine
//!
//! This crate is the paper's primary contribution: it turns a validated
//! interface specification into
//!
//! * a **design IR** ([`ir::DesignIr`]) describing the generated hardware —
//!   one user-logic stub per declaration (ICOB + SMB structure, §5.3), an
//!   arbitration unit (§5.2) and a native bus interface (§5.1);
//! * **HDL text** in VHDL or Verilog ([`hdlgen`]), including the
//!   `%MACRO%`-template expansion engine of chapter 7 ([`template`]);
//! * a **cycle-accurate simulation model** of the same design
//!   ([`simbuild`]) — generated stubs and arbiter as `splice-sim`
//!   components speaking the SIS, ready to attach to any native bus
//!   adapter;
//! * the **extension API** ([`api`]) mirroring the thesis's dynamic-library
//!   plugin interface: parameter checker, marker loader and interface
//!   generator per bus (§7.1).
//!
//! Everything downstream (driver emission, resource estimation, the CLI)
//! derives from the one [`ir::DesignIr`], so the HDL text, the simulated
//! behaviour and the resource counts cannot drift apart.

pub mod api;
pub mod elaborate;
pub mod hdlgen;
pub mod ir;
pub mod simbuild;
pub mod template;

pub use elaborate::elaborate;
pub use ir::{BeatCount, DesignIr, FunctionStub, StubState, Tracker};
pub use simbuild::{CalcLogic, CalcResult, FuncInputs};
