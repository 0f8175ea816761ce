//! Per-bus timing constants for the simulation models.
//!
//! All values are in **bus clock cycles** (the thesis's boards clock every
//! modelled interconnect at 100 MHz while the PPC405 runs at 300 MHz, so
//! one bus cycle ≈ three CPU cycles; CPU-side costs are converted with
//! [`BusTiming::cpu_to_bus`]).

use splice_spec::bus::BusKind;

/// CPU core clocks per bus clock (300 MHz PPC405 / 100 MHz bus, §9.3).
pub const CPU_CLOCKS_PER_BUS_CLOCK: u32 = 3;

/// Timing personality of one bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTiming {
    /// Bus cycles from the CPU deciding to issue a store until the native
    /// request signals are valid on the bus (instruction issue, address
    /// drive, arbitration grant). Opcode-coupled interfaces (FCB) skip the
    /// memory system entirely and pay 0.
    pub issue_write: u32,
    /// Same, for loads.
    pub issue_read: u32,
    /// Extra cycles the request/response spends crossing a bus bridge,
    /// each way (OPB and APB hang off bridges; §2.3).
    pub bridge_latency: u32,
    /// Cycles per additional beat within a native burst (the first beat
    /// pays the full handshake; later beats stream).
    pub burst_beat: u32,
    /// Full bus transactions needed to set up *and* tear down one DMA
    /// transfer ("a minimum of four bus transactions", §9.2.1).
    pub dma_setup_txns: u32,
    /// Strictly synchronous: no per-beat acknowledge, reads complete on a
    /// fixed schedule and readiness is discovered by polling (APB).
    pub strict_sync: bool,
}

impl BusTiming {
    /// Convert CPU core cycles to (rounded-up) bus cycles.
    pub fn cpu_to_bus(cpu_cycles: u32) -> u32 {
        cpu_cycles.div_ceil(CPU_CLOCKS_PER_BUS_CLOCK)
    }

    /// The timing personality of a builtin bus.
    pub fn for_bus(kind: BusKind) -> BusTiming {
        match kind {
            // Memory-mapped, directly on the processor: one cycle of
            // load/store issue + arbitration.
            BusKind::Plb => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 0,
                burst_beat: 1,
                dma_setup_txns: 4,
                strict_sync: false,
            },
            // Behind the PLB→OPB bridge: every access pays the hop.
            BusKind::Opb => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 2,
                burst_beat: 1,
                dma_setup_txns: 0,
                strict_sync: false,
            },
            // Co-processor opcodes: no memory-system arbitration, but the
            // FCB instruction itself still issues through the pipeline
            // ("high-speed and low latency transfers", §2.3.2).
            BusKind::Fcb => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 0,
                burst_beat: 1,
                dma_setup_txns: 0,
                strict_sync: false,
            },
            // AHB→APB bridge plus the strictly synchronous protocol.
            BusKind::Apb => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 2,
                burst_beat: 0,
                dma_setup_txns: 0,
                strict_sync: true,
            },
            BusKind::Ahb => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 0,
                burst_beat: 1,
                dma_setup_txns: 4,
                strict_sync: false,
            },
            BusKind::Wishbone => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 0,
                burst_beat: 1,
                dma_setup_txns: 0,
                strict_sync: false,
            },
            BusKind::Avalon => BusTiming {
                issue_write: 1,
                issue_read: 1,
                bridge_latency: 1,
                burst_beat: 1,
                dma_setup_txns: 4,
                strict_sync: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_to_bus_rounds_up() {
        assert_eq!(BusTiming::cpu_to_bus(0), 0);
        assert_eq!(BusTiming::cpu_to_bus(1), 1);
        assert_eq!(BusTiming::cpu_to_bus(3), 1);
        assert_eq!(BusTiming::cpu_to_bus(4), 2);
        assert_eq!(BusTiming::cpu_to_bus(6), 2);
    }

    #[test]
    fn fcb_has_no_bridge_or_arbitration() {
        let fcb = BusTiming::for_bus(BusKind::Fcb);
        assert_eq!(fcb.bridge_latency, 0);
        assert!(fcb.issue_write <= BusTiming::for_bus(BusKind::Plb).issue_write);
    }

    #[test]
    fn bridged_buses_pay_latency() {
        assert!(BusTiming::for_bus(BusKind::Opb).bridge_latency > 0);
        assert!(BusTiming::for_bus(BusKind::Apb).bridge_latency > 0);
        assert_eq!(BusTiming::for_bus(BusKind::Plb).bridge_latency, 0);
    }

    #[test]
    fn apb_is_the_only_strict_sync_builtin() {
        for k in BusKind::all() {
            assert_eq!(BusTiming::for_bus(k).strict_sync, k == BusKind::Apb, "{k}");
        }
    }

    #[test]
    fn dma_setup_matches_thesis() {
        // "the DMA circuitry requires a minimum of four bus transactions
        // to setup and take down" (§9.2.1).
        assert_eq!(BusTiming::for_bus(BusKind::Plb).dma_setup_txns, 4);
    }
}
