//! # splice-buses — native bus models, SIS adapters, CPU master
//!
//! The thesis evaluates Splice on real interconnects: the IBM CoreConnect
//! PLB/OPB/FCB attached to a PowerPC 405 and the AMBA APB attached to a
//! LEON2 (chapter 2). This crate provides cycle-accurate simulation models
//! of those buses — master side (one PPC405-flavoured CPU, [`master`],
//! executing the driver's [`BusOp`](splice_driver::BusOp) sequences at a
//! 3:1 core:bus clock ratio on a request/acknowledge or an APB port) and
//! slave side (the native→SIS adapters of §4.3) — plus
//! [`splice_core::api::BusLibrary`] implementations carrying each bus's
//! HDL adapter template, markers and capability description.
//!
//! The PLB is modelled signal-for-signal after Figs 4.5–4.8 ([`plb`]); the
//! remaining pseudo-asynchronous buses share one model ([`generic`]),
//! parameterised by each bus's capability description
//! ([`splice_spec::bus::BusCaps`]), which carries the per-bus differences
//! the thesis describes (bridge hops for the OPB/APB, opcode coupling for
//! the FCB, burst depths, DMA limits). [`timing`] holds the few cycle
//! constants every bus shares.

pub mod generic;
pub mod libs;
pub mod master;
pub mod plb;
pub mod system;
pub mod timing;

pub use libs::{builtin_libraries, library_for};
pub use master::CpuMaster;
pub use system::{CallOutcome, SplicedSystem, SystemError};
