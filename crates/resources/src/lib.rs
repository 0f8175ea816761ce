//! # splice-resources — FPGA resource estimation
//!
//! Figure 9.3 of the thesis compares the *FPGA resources consumed* by each
//! interface implementation, synthesized for a Virtex-4 FX12. We cannot run
//! Xilinx ISE, so this crate estimates resources **structurally** from the
//! same [`DesignIr`](splice_core::ir::DesignIr) that produces the HDL: every register in the design
//! contributes flip-flops, every comparator/multiplexer/state decoder
//! contributes LUTs, and slices follow the Virtex-4 packing rule (two 4-LUTs
//! and two flip-flops per slice).
//!
//! Absolute numbers are calibration-dependent and not the claim being
//! reproduced; the *ratios* between implementations are (Splice PLB ≈ 23%
//! smaller than the naive hand-coded PLB; Splice FCB ≈ 2% more than the
//! optimized hand-coded FCB; DMA ≈ +57–69% over the simple Splice PLB).

pub mod cost;
pub mod estimate;
pub mod netlist;

pub use cost::{pct_str, Resources};
pub use estimate::{
    arbiter_cost, design_cost, interface_cost, logic_cost, stub_cost, ResourceReport,
};
pub use netlist::{netlist_cost, NetlistBill};
