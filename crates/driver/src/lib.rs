//! # splice-driver — software driver generation
//!
//! Chapter 6 of the thesis: for every interface declaration Splice emits an
//! ANSI-C driver whose calling convention matches the original prototype,
//! built from per-bus *transaction macros* (`WRITE_SINGLE`, `READ_QUAD`,
//! `SET_ADDRESS`, `WAIT_FOR_RESULTS`, ... — Fig 7.2). This crate produces:
//!
//! * the **C source text** — `<dev>_driver.c`, `<dev>_driver.h` and the
//!   per-bus `splice_lib.h` macro header ([`cgen`], [`macros`]);
//! * the **executable form** of the same drivers — [`program::BusOp`]
//!   sequences produced by [`lower::lower_call`], which the simulated CPU
//!   master in `splice-buses` executes cycle-accurately.
//!
//! Both forms come from one transfer plan per function (`lower::plan`):
//! the C is printed from the plan the simulator runs, and a test compiles
//! and executes the C and compares its bus traffic with the program.

pub mod cgen;
pub mod lower;
pub mod macros;
pub mod program;

pub use lower::lower_call;
pub use program::{BusOp, CallArgs, CallValue, DriverProgram};
