//! Bus-cycle constants of the simulated CPU masters.
//!
//! All values are in **bus clock cycles** (the thesis's boards clock every
//! modelled interconnect at 100 MHz while the PPC405 runs at 300 MHz, so
//! one bus cycle ≈ three CPU cycles; CPU-side costs are converted with
//! [`cpu_to_bus`]). What differs from bus to bus — bridge hops, the
//! synchronization class, bursts and DMA — is read from the bus library's
//! [`splice_spec::bus::BusCaps`].

/// CPU core clocks per bus clock (300 MHz PPC405 / 100 MHz bus, §9.3).
pub const CPU_CLOCKS_PER_BUS_CLOCK: u32 = 3;

/// Bus cycles from the CPU deciding to issue a load or store until the
/// native request signals are valid on the bus (instruction issue, address
/// drive, arbitration grant), before any bridge hop. The FCB's
/// co-processor opcodes skip the memory system but still issue through the
/// pipeline, so every modelled bus pays the same.
pub const REQUEST_CYCLES: u32 = 1;

/// Full bus transactions that program one DMA transfer: "the DMA circuitry
/// requires a minimum of four bus transactions to setup and take down"
/// (§9.2.1).
pub const DMA_SETUP_TXNS: u32 = 4;

/// Convert CPU core cycles to (rounded-up) bus cycles.
pub fn cpu_to_bus(cpu_cycles: u32) -> u32 {
    cpu_cycles.div_ceil(CPU_CLOCKS_PER_BUS_CLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_to_bus_rounds_up() {
        assert_eq!(cpu_to_bus(0), 0);
        assert_eq!(cpu_to_bus(1), 1);
        assert_eq!(cpu_to_bus(3), 1);
        assert_eq!(cpu_to_bus(4), 2);
        assert_eq!(cpu_to_bus(6), 2);
    }

    #[test]
    fn dma_setup_matches_thesis() {
        assert_eq!(DMA_SETUP_TXNS, 4);
    }
}
