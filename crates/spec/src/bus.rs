//! Bus identities and capability descriptions.
//!
//! Validation (§3.2) needs to know, per target bus: which widths it can be
//! configured at, whether it is memory-mapped (requiring `%base_address`),
//! whether it offers DMA and burst transfers, and whether its transfer
//! protocol is *pseudo asynchronous* (handshaked, may insert wait states) or
//! *strictly synchronous* (every beat completes in one cycle; reads are
//! coordinated through the CALC_DONE status register — §4.2.2).
//!
//! The builtin registry mirrors the buses the thesis supports (PLB, OPB,
//! FCB, APB) plus its named future-work targets (AHB, Wishbone, Avalon,
//! §10.2), which this reproduction implements as extensions.

use std::collections::BTreeMap;
use std::fmt;

/// Transfer-protocol class of a bus (§4.2), which is also the SIS protocol
/// variant its generated designs, drivers and simulated masters speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncClass {
    /// Handshaked: the peripheral may pause the bus; completion is signalled
    /// per-beat (IO_DONE). PLB, OPB, FCB, AHB, Wishbone, Avalon.
    PseudoAsynchronous,
    /// No wait states: every beat completes the cycle it is issued; read
    /// readiness is discovered by polling the CALC_DONE status register. APB.
    StrictlySynchronous,
}

impl fmt::Display for SyncClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncClass::PseudoAsynchronous => f.write_str("pseudo asynchronous"),
            SyncClass::StrictlySynchronous => f.write_str("strictly synchronous"),
        }
    }
}

/// The buses this reproduction knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BusKind {
    /// IBM CoreConnect Processor Local Bus (32/64-bit, DMA, burst).
    Plb,
    /// IBM CoreConnect On-chip Peripheral Bus (32-bit; simple RW only in
    /// Splice, §2.3.2).
    Opb,
    /// Xilinx Fabric Co-processor Bus (32-bit, double/quad burst, no DMA —
    /// not memory-mapped, §2.3.2).
    Fcb,
    /// AMBA Advanced Peripheral Bus (32-bit, strictly synchronous).
    Apb,
    /// AMBA High-speed Bus (thesis future work; 32/64-bit, DMA, 16-beat
    /// bursts, §2.3.1).
    Ahb,
    /// OpenCores Wishbone (future work, §10.2).
    Wishbone,
    /// Altera Avalon-MM (future work, §10.2).
    Avalon,
}

impl BusKind {
    /// The lower-case name used in `%bus_type` directives and in the
    /// `lib<x>_interface.so` library naming convention (§7.2).
    pub fn name(&self) -> &'static str {
        match self {
            BusKind::Plb => "plb",
            BusKind::Opb => "opb",
            BusKind::Fcb => "fcb",
            BusKind::Apb => "apb",
            BusKind::Ahb => "ahb",
            BusKind::Wishbone => "wishbone",
            BusKind::Avalon => "avalon",
        }
    }

    /// Parse a `%bus_type` argument.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "plb" => Some(BusKind::Plb),
            "opb" => Some(BusKind::Opb),
            "fcb" => Some(BusKind::Fcb),
            "apb" => Some(BusKind::Apb),
            "ahb" => Some(BusKind::Ahb),
            "wishbone" => Some(BusKind::Wishbone),
            "avalon" => Some(BusKind::Avalon),
            _ => None,
        }
    }

    /// Every builtin bus, in a stable order.
    pub fn all() -> [BusKind; 7] {
        [
            BusKind::Plb,
            BusKind::Opb,
            BusKind::Fcb,
            BusKind::Apb,
            BusKind::Ahb,
            BusKind::Wishbone,
            BusKind::Avalon,
        ]
    }
}

impl fmt::Display for BusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Capability description of one bus, as consumed by validation and
/// elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusCaps {
    /// Which bus this describes.
    pub kind: BusKind,
    /// Data widths the bus can be configured at (`%bus_width`).
    pub widths: Vec<u32>,
    /// Whether peripherals are reached through memory mappings
    /// (`%base_address` required). The FCB is opcode-addressed instead: it
    /// couples to the CPU through dedicated opcodes, not loads and stores.
    pub memory_mapped: bool,
    /// Burst beat counts natively supported beyond single transfers
    /// (e.g. `[2, 4]` for FCB double/quad-word ops).
    pub burst_beats: Vec<u32>,
    /// Maximum bytes movable in one DMA transaction (PLB: 256, §2.3.2;
    /// AHB: 1024, §2.3.1); zero on a bus without DMA ([`BusCaps::dma`]).
    pub dma_max_bytes: u32,
    /// Transfer protocol class.
    pub sync: SyncClass,
    /// Extra bus-clock latency a slave access pays for bridge/arbiter hops
    /// (OPB and APB sit behind a bridge; §2.3). Used by the simulator.
    pub bridge_latency: u32,
}

impl BusCaps {
    /// Whether the physical bus offers DMA channels. Splice "is not capable
    /// of providing DMA support to a bus that does not already have such
    /// capabilities" (§3.1.5).
    pub fn dma(&self) -> bool {
        self.dma_max_bytes > 0
    }

    /// True if `width` is a legal `%bus_width` for this bus.
    pub fn supports_width(&self, width: u32) -> bool {
        self.widths.contains(&width)
    }

    /// True if the bus natively supports `beats`-beat bursts.
    pub fn supports_burst(&self, beats: u32) -> bool {
        beats == 1 || self.burst_beats.contains(&beats)
    }

    /// Builtin capability table (thesis §2.3 and §10.2).
    pub fn builtin(kind: BusKind) -> BusCaps {
        match kind {
            BusKind::Plb => BusCaps {
                kind,
                widths: vec![32, 64],
                memory_mapped: true,
                burst_beats: vec![2, 4],
                dma_max_bytes: 256,
                sync: SyncClass::PseudoAsynchronous,
                bridge_latency: 0,
            },
            BusKind::Opb => BusCaps {
                kind,
                widths: vec![32],
                memory_mapped: true,
                // The physical OPB supports DMA/burst, but Splice's OPB
                // adapter deliberately handles only simple reads and writes
                // (§2.3.2): feature directives are rejected for it.
                burst_beats: vec![],
                dma_max_bytes: 0,
                sync: SyncClass::PseudoAsynchronous,
                bridge_latency: 2,
            },
            BusKind::Fcb => BusCaps {
                kind,
                widths: vec![32],
                memory_mapped: false,
                burst_beats: vec![2, 4],
                dma_max_bytes: 0,
                sync: SyncClass::PseudoAsynchronous,
                bridge_latency: 0,
            },
            BusKind::Apb => BusCaps {
                kind,
                widths: vec![32],
                memory_mapped: true,
                burst_beats: vec![],
                dma_max_bytes: 0,
                sync: SyncClass::StrictlySynchronous,
                bridge_latency: 2,
            },
            BusKind::Ahb => BusCaps {
                kind,
                widths: vec![32, 64],
                memory_mapped: true,
                burst_beats: vec![2, 4, 8, 16],
                dma_max_bytes: 1024,
                sync: SyncClass::PseudoAsynchronous,
                bridge_latency: 0,
            },
            BusKind::Wishbone => BusCaps {
                kind,
                widths: vec![8, 16, 32, 64],
                memory_mapped: true,
                burst_beats: vec![2, 4],
                dma_max_bytes: 0,
                sync: SyncClass::PseudoAsynchronous,
                bridge_latency: 0,
            },
            BusKind::Avalon => BusCaps {
                kind,
                widths: vec![32, 64],
                memory_mapped: true,
                burst_beats: vec![2, 4, 8],
                dma_max_bytes: 4096,
                sync: SyncClass::PseudoAsynchronous,
                bridge_latency: 1,
            },
        }
    }
}

/// A registry mapping `%bus_type` names to capability descriptions.
///
/// This mirrors the dynamic-library discovery of §7.2: external bus
/// libraries can register additional names at runtime.
#[derive(Debug, Clone, Default)]
pub struct BusRegistry {
    caps: BTreeMap<String, BusCaps>,
}

impl BusRegistry {
    /// An empty registry (for testing custom bus libraries in isolation).
    pub fn empty() -> Self {
        BusRegistry { caps: BTreeMap::new() }
    }

    /// Registry preloaded with every builtin bus.
    pub fn builtin() -> Self {
        let mut r = BusRegistry::empty();
        for kind in BusKind::all() {
            r.register(kind.name(), BusCaps::builtin(kind));
        }
        r
    }

    /// Register (or replace) a bus under `name`.
    pub fn register(&mut self, name: &str, caps: BusCaps) {
        self.caps.insert(name.to_ascii_lowercase(), caps);
    }

    /// Look up a bus by `%bus_type` name.
    pub fn get(&self, name: &str) -> Option<&BusCaps> {
        self.caps.get(&name.to_ascii_lowercase())
    }

    /// Registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.caps.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        for k in BusKind::all() {
            assert_eq!(BusKind::from_name(k.name()), Some(k));
        }
        assert_eq!(BusKind::from_name("PLB"), Some(BusKind::Plb));
        assert_eq!(BusKind::from_name("nope"), None);
    }

    #[test]
    fn plb_caps_match_thesis() {
        let c = BusCaps::builtin(BusKind::Plb);
        assert!(c.supports_width(32) && c.supports_width(64) && !c.supports_width(16));
        assert!(c.dma());
        assert_eq!(c.dma_max_bytes, 256);
        assert!(c.memory_mapped);
        assert_eq!(c.sync, SyncClass::PseudoAsynchronous);
    }

    #[test]
    fn fcb_is_opcode_coupled_without_dma() {
        let c = BusCaps::builtin(BusKind::Fcb);
        assert!(!c.memory_mapped);
        assert!(!c.dma());
        assert_eq!(c.bridge_latency, 0, "FCB opcodes cross no bridge");
        assert!(c.supports_burst(2) && c.supports_burst(4) && !c.supports_burst(8));
        assert!(c.supports_burst(1), "single transfers always work");
    }

    #[test]
    fn apb_is_strictly_synchronous() {
        let c = BusCaps::builtin(BusKind::Apb);
        assert_eq!(c.sync, SyncClass::StrictlySynchronous);
        assert!(c.burst_beats.is_empty());
    }

    #[test]
    fn apb_is_the_only_strict_sync_builtin() {
        for k in BusKind::all() {
            let strict = BusCaps::builtin(k).sync == SyncClass::StrictlySynchronous;
            assert_eq!(strict, k == BusKind::Apb, "{k}");
        }
    }

    #[test]
    fn bridged_buses_pay_latency() {
        assert!(BusCaps::builtin(BusKind::Opb).bridge_latency > 0);
        assert!(BusCaps::builtin(BusKind::Apb).bridge_latency > 0);
        assert_eq!(BusCaps::builtin(BusKind::Plb).bridge_latency, 0);
    }

    #[test]
    fn dma_is_offered_exactly_where_a_transaction_can_move_bytes() {
        let dma: Vec<BusKind> =
            BusKind::all().into_iter().filter(|&k| BusCaps::builtin(k).dma()).collect();
        assert_eq!(dma, [BusKind::Plb, BusKind::Ahb, BusKind::Avalon]);
    }

    #[test]
    fn opb_restricted_to_simple_rw() {
        let c = BusCaps::builtin(BusKind::Opb);
        assert!(!c.dma());
        assert!(c.burst_beats.is_empty());
        assert!(c.bridge_latency > 0, "OPB sits behind a PLB bridge");
    }

    #[test]
    fn registry_lookup_case_insensitive() {
        let r = BusRegistry::builtin();
        assert!(r.get("PLB").is_some());
        assert!(r.get("plb").is_some());
        assert!(r.get("pci").is_none());
        assert_eq!(r.names().count(), 7);
    }

    #[test]
    fn registry_supports_external_registration() {
        let mut r = BusRegistry::empty();
        assert!(r.get("mybus").is_none());
        let mut caps = BusCaps::builtin(BusKind::Wishbone);
        caps.widths = vec![128];
        r.register("mybus", caps);
        assert!(r.get("MyBus").unwrap().supports_width(128));
    }
}
