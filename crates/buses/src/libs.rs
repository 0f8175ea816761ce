//! [`BusLibrary`] implementations for every builtin bus.
//!
//! Each library carries what the thesis's `lib<x>_interface.so` plugins
//! carry (§7.1): the parameter checker, the bus-specific marker loader and
//! the annotated native-adapter HDL template. The simulation adapter of a
//! bus is picked by its synchronization class in
//! [`crate::system::SplicedSystem`].

use splice_core::api::{BusLibrary, BusLibraryRegistry};
use splice_core::ir::DesignIr;
use splice_core::template::MarkerSet;
use splice_spec::bus::{BusCaps, BusKind};
use splice_spec::validate::ModuleSpec;

/// A registry preloaded with every builtin bus library.
pub fn builtin_libraries() -> BusLibraryRegistry {
    let mut r = BusLibraryRegistry::new();
    for kind in BusKind::all() {
        r.register(Box::new(BuiltinBusLibrary { kind }));
    }
    r
}

/// The library for one builtin bus.
pub fn library_for(kind: BusKind) -> BuiltinBusLibrary {
    BuiltinBusLibrary { kind }
}

/// Library implementation shared by the builtin buses (their behavioural
/// differences live in [`BusCaps`] and the per-bus template text below).
pub struct BuiltinBusLibrary {
    kind: BusKind,
}

impl BuiltinBusLibrary {
    /// Which bus this library serves.
    pub fn kind(&self) -> BusKind {
        self.kind
    }
}

impl BusLibrary for BuiltinBusLibrary {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn caps(&self) -> BusCaps {
        BusCaps::builtin(self.kind)
    }

    fn check_params(&self, module: &ModuleSpec) -> Result<(), String> {
        let p = &module.params;
        match self.kind {
            BusKind::Plb
                if p.base_address > u32::MAX as u64 => {
                    return Err("the PLB operates on 32-bit addresses (§3.2.1)".into());
                }
            BusKind::Opb
                // "the tool is only capable of generating the logic
                // necessary to handle simple read and write operations"
                // for the OPB (§2.3.2).
                if (p.dma || p.burst) => {
                    return Err(
                        "the Splice OPB adapter supports simple reads and writes only; \
                         use the PLB for DMA/burst traffic (§2.3.2)"
                            .into(),
                    );
                }
            BusKind::Fcb
                if module.total_instances() > 16 => {
                    return Err(
                        "the FCB is a single-device co-processor port; keep the logical \
                         peripheral small (§2.3.2)"
                            .into(),
                    );
                }
            BusKind::Apb
                if (p.dma || p.burst) => {
                    return Err("the APB has neither DMA nor burst transfers (§2.3.1)".into());
                }
            _ => {}
        }
        Ok(())
    }

    fn markers(&self, ir: &DesignIr) -> MarkerSet {
        let mut m = MarkerSet::new();
        m.set("NATIVE_BUS_NAME", self.kind.name().to_ascii_uppercase());
        m.set("NATIVE_PORTS", native_ports(self.kind, ir.module.params.bus_width));
        m.set("NATIVE_PROTOCOL_NOTE", protocol_note(self.kind));
        m.set(
            "STATUS_READ_NOTE",
            "function identifier zero is reserved for CALC_DONE status reads (SIS 4.2.2)",
        );
        m.set("BASE_ADDR_HEX", format!("{:08X}", ir.module.params.base_address));
        m
    }

    fn interface_template(&self, _ir: &DesignIr) -> String {
        adapter_template(self.kind)
    }
}

/// The native port list of the adapter entity, per bus.
fn native_ports(kind: BusKind, width: u32) -> String {
    let w = width - 1;
    match kind {
        BusKind::Plb => format!(
            "    PLB_ADDR   : in  std_logic_vector(31 downto 0);\n\
             \x20   PLB_M_DATA : in  std_logic_vector({w} downto 0);\n\
             \x20   PLB_S_DATA : out std_logic_vector({w} downto 0);\n\
             \x20   PLB_WR_CE  : in  std_logic;\n\
             \x20   PLB_RD_CE  : in  std_logic;\n\
             \x20   PLB_BE     : in  std_logic_vector(7 downto 0);\n\
             \x20   PLB_WR_REQ : in  std_logic;\n\
             \x20   PLB_RD_REQ : in  std_logic;\n\
             \x20   PLB_WR_ACK : out std_logic;\n\
             \x20   PLB_RD_ACK : out std_logic"
        ),
        BusKind::Opb => format!(
            "    OPB_ABUS   : in  std_logic_vector(31 downto 0);\n\
             \x20   OPB_DBUS   : in  std_logic_vector({w} downto 0);\n\
             \x20   SLV_DBUS   : out std_logic_vector({w} downto 0);\n\
             \x20   OPB_RNW    : in  std_logic;\n\
             \x20   OPB_SELECT : in  std_logic;\n\
             \x20   SLV_XFERACK: out std_logic"
        ),
        BusKind::Fcb => format!(
            "    FCB_OP       : in  std_logic_vector(7 downto 0);\n\
             \x20   FCB_OPERAND  : in  std_logic_vector({w} downto 0);\n\
             \x20   FCB_RESULT   : out std_logic_vector({w} downto 0);\n\
             \x20   FCB_OP_VALID : in  std_logic;\n\
             \x20   FCB_DONE     : out std_logic"
        ),
        BusKind::Apb => format!(
            "    PADDR   : in  std_logic_vector(31 downto 0);\n\
             \x20   PSEL    : in  std_logic;\n\
             \x20   PENABLE : in  std_logic;\n\
             \x20   PWRITE  : in  std_logic;\n\
             \x20   PWDATA  : in  std_logic_vector({w} downto 0);\n\
             \x20   PRDATA  : out std_logic_vector({w} downto 0)"
        ),
        BusKind::Ahb => format!(
            "    HADDR  : in  std_logic_vector(31 downto 0);\n\
             \x20   HTRANS : in  std_logic_vector(1 downto 0);\n\
             \x20   HWRITE : in  std_logic;\n\
             \x20   HWDATA : in  std_logic_vector({w} downto 0);\n\
             \x20   HRDATA : out std_logic_vector({w} downto 0);\n\
             \x20   HREADY : out std_logic;\n\
             \x20   HSEL   : in  std_logic"
        ),
        BusKind::Wishbone => format!(
            "    ADR_I : in  std_logic_vector(31 downto 0);\n\
             \x20   DAT_I : in  std_logic_vector({w} downto 0);\n\
             \x20   DAT_O : out std_logic_vector({w} downto 0);\n\
             \x20   WE_I  : in  std_logic;\n\
             \x20   STB_I : in  std_logic;\n\
             \x20   CYC_I : in  std_logic;\n\
             \x20   ACK_O : out std_logic"
        ),
        BusKind::Avalon => format!(
            "    av_address    : in  std_logic_vector(31 downto 0);\n\
             \x20   av_writedata  : in  std_logic_vector({w} downto 0);\n\
             \x20   av_readdata   : out std_logic_vector({w} downto 0);\n\
             \x20   av_write      : in  std_logic;\n\
             \x20   av_read       : in  std_logic;\n\
             \x20   av_waitrequest: out std_logic"
        ),
    }
}

fn protocol_note(kind: BusKind) -> &'static str {
    match kind {
        BusKind::Plb => {
            "pseudo asynchronous; RD/WR_REQ maps to IO_ENABLE, RD/WR_ACK to IO_DONE (Figs 4.7/4.8)"
        }
        BusKind::Opb => "pseudo asynchronous behind the PLB bridge; simple reads/writes only",
        BusKind::Fcb => "opcode-coupled co-processor port; double/quad burst ops supported",
        BusKind::Apb => "strictly synchronous; no wait states, CALC_DONE polled via function id 0",
        BusKind::Ahb => "pseudo asynchronous; 16-beat bursts and DMA masters supported",
        BusKind::Wishbone => "pseudo asynchronous; classic STB/ACK handshake",
        BusKind::Avalon => "pseudo asynchronous; waitrequest-based handshake",
    }
}

/// The annotated native-adapter template (the "reference HDL file" of §5.1).
fn adapter_template(kind: BusKind) -> String {
    let bus = kind.name();
    format!(
        "-- {bus}_interface: native bus adapter generated by Splice\n\
         -- device: %COMP_NAME%   generated: %GEN_DATE%\n\
         -- protocol: %NATIVE_PROTOCOL_NOTE%\n\
         -- %STATUS_READ_NOTE%\n\
         library ieee;\n\
         use ieee.std_logic_1164.all;\n\
         use ieee.numeric_std.all;\n\
         \n\
         entity {bus}_interface is\n\
         \x20 port (\n\
         \x20   CLK : in std_logic;\n\
         \x20   RST : in std_logic;\n\
         -- native side (%NATIVE_BUS_NAME%)\n\
         %NATIVE_PORTS%;\n\
         -- SIS side (width %BUS_WIDTH%, func id width %FUNC_ID_WIDTH%)\n\
         \x20   DATA_IN        : out std_logic_vector(%BUS_WIDTH% - 1 downto 0);\n\
         \x20   DATA_IN_VALID  : out std_logic;\n\
         \x20   IO_ENABLE      : out std_logic;\n\
         \x20   FUNC_ID        : out std_logic_vector(%FUNC_ID_WIDTH% - 1 downto 0);\n\
         \x20   DATA_OUT       : in  std_logic_vector(%BUS_WIDTH% - 1 downto 0);\n\
         \x20   DATA_OUT_VALID : in  std_logic;\n\
         \x20   IO_DONE        : in  std_logic;\n\
         \x20   CALC_DONE_VEC  : in  std_logic_vector(63 downto 0)\n\
         \x20 );\n\
         end entity {bus}_interface;\n\
         \n\
         architecture rtl of {bus}_interface is\n\
         \x20 constant BASE_ADDRESS : std_logic_vector(31 downto 0) := x\"%BASE_ADDR_HEX%\";\n\
         \x20 constant DMA_ENABLED  : boolean := %DMA_ENABLED%;\n\
         begin\n\
         \x20 -- FUNC_ID multiplexing and status-read handling are generated\n\
         \x20 -- into the arbiter; the adapter performs the signal-level\n\
         \x20 -- translation between the native protocol and the SIS.\n\
         end architecture rtl;\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::elaborate::elaborate;
    use splice_core::hdlgen::{generate_hardware, standard_markers};
    use splice_core::template::referenced_markers;
    use splice_spec::parse_and_validate;

    fn design(bus: &str) -> DesignIr {
        let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
        let src =
            format!("%device_name demo\n%bus_type {bus}\n%bus_width 32\n{base}long f(int x);");
        elaborate(&parse_and_validate(&src).unwrap().module)
    }

    #[test]
    fn all_builtin_buses_registered() {
        let reg = builtin_libraries();
        let names: Vec<&str> = reg.names().collect();
        assert_eq!(names, vec!["ahb", "apb", "avalon", "fcb", "opb", "plb", "wishbone"]);
    }

    #[test]
    fn spec_registry_matches_builtin_caps() {
        let reg = builtin_libraries().spec_registry();
        for kind in BusKind::all() {
            assert_eq!(reg.get(kind.name()), Some(&BusCaps::builtin(kind)), "{kind}");
        }
    }

    #[test]
    fn templates_expand_against_their_own_markers() {
        for kind in BusKind::all() {
            let lib = library_for(kind);
            let ir = design(kind.name());
            let template = lib.interface_template(&ir);
            let mut markers = standard_markers(&ir, "today");
            markers.merge(&lib.markers(&ir));
            let refs = referenced_markers(&template);
            for r in &refs {
                assert!(markers.get(r).is_some(), "{kind}: template references unknown %{r}%");
            }
            let out = splice_core::template::expand(&template, &markers).unwrap();
            assert!(out.contains(&format!("entity {}_interface is", kind.name())), "{kind}");
        }
    }

    #[test]
    fn generate_hardware_with_real_plb_template() {
        let lib = library_for(BusKind::Plb);
        let ir = design("plb");
        let markers = lib.markers(&ir);
        let files =
            generate_hardware(&ir, &lib.interface_template(&ir), &markers, "2007-05-01").unwrap();
        assert_eq!(files[0].name, "plb_interface.vhd");
        assert!(files[0].text.contains("PLB_WR_ACK : out std_logic"), "{}", files[0].text);
        assert!(files[0].text.contains("x\"80000000\""), "{}", files[0].text);
    }

    #[test]
    fn opb_rejects_dma_and_burst() {
        let lib = library_for(BusKind::Opb);
        let src = "%device_name d\n%bus_type opb\n%bus_width 32\n%base_address 0x80000000\nlong f(int x);";
        let mut m = parse_and_validate(src).unwrap().module;
        assert!(lib.check_params(&m).is_ok());
        m.params.dma = true;
        assert!(lib.check_params(&m).is_err());
    }

    #[test]
    fn plb_rejects_64_bit_addresses() {
        let lib = library_for(BusKind::Plb);
        let src = "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\nlong f(int x);";
        let mut m = parse_and_validate(src).unwrap().module;
        m.params.base_address = 0x1_0000_0000;
        assert!(lib.check_params(&m).is_err());
    }

    #[test]
    fn fcb_limits_instance_fanout() {
        let lib = library_for(BusKind::Fcb);
        let src = "%device_name d\n%bus_type fcb\n%bus_width 32\nvoid f():17;";
        let m = parse_and_validate(src).unwrap().module;
        assert!(lib.check_params(&m).is_err());
    }
}
