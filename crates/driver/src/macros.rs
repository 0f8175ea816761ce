//! Per-bus transaction-macro headers (`splice_lib.h`).
//!
//! §6.1: "Each bus interface supported by the tool has its own set of
//! declarations for these macros stored in the form of a standard C-syntax
//! header file." The required macro set is Fig 7.2: WRITE/READ
//! SINGLE/DOUBLE/QUAD, SET_ADDRESS and WAIT_FOR_RESULTS, plus the optional
//! WRITE_DMA / READ_DMA pair.
//!
//! Headers are generated from the bus capability description: buses without
//! native bursts get DOUBLE/QUAD macros "redefined in the form of
//! transactions that are allowed" — sequential singles (§6.1.1).

use splice_spec::bus::{BusCaps, SyncClass};
use std::fmt::Write as _;

/// The required macro names of Fig 7.2, in listing order.
pub const REQUIRED_MACROS: [&str; 8] = [
    "WRITE_SINGLE",
    "WRITE_DOUBLE",
    "WRITE_QUAD",
    "READ_SINGLE",
    "READ_DOUBLE",
    "READ_QUAD",
    "SET_ADDRESS",
    "WAIT_FOR_RESULTS",
];

/// The optional DMA macro names of Fig 7.2.
pub const OPTIONAL_MACROS: [&str; 2] = ["WRITE_DMA", "READ_DMA"];

/// The C type of one bus word, `splice_word_t`: `SPLICE_WORD_BYTES` wide,
/// so each transfer macro moves one beat.
pub fn word_type(bus_width: u32) -> &'static str {
    match bus_width {
        0..=8 => "unsigned char",
        9..=16 => "unsigned short",
        17..=32 => "unsigned int",
        _ => "unsigned long long",
    }
}

/// Generate the `splice_lib.h` text for one bus configuration.
pub fn macro_header(bus: &BusCaps, bus_width: u32, base_address: u64) -> String {
    macro_header_with_irq(bus, bus_width, base_address, false)
}

/// [`macro_header`] with completion-interrupt support (`%irq_support`,
/// thesis future work §10.2): adds the `WAIT_FOR_IRQ` macro that parks the
/// CPU until the peripheral's interrupt for a given function id fires.
pub fn macro_header_with_irq(
    bus: &BusCaps,
    bus_width: u32,
    base_address: u64,
    irq: bool,
) -> String {
    let mut o = String::new();
    let name = bus.kind.name();
    let _ = writeln!(o, "/* splice_lib.h — {name} transaction macros (generated by Splice) */");
    let _ = writeln!(o, "#ifndef SPLICE_LIB_H");
    let _ = writeln!(o, "#define SPLICE_LIB_H");
    o.push('\n');
    let _ = writeln!(o, "typedef {} splice_word_t;", word_type(bus_width));
    let _ = writeln!(o, "#define SPLICE_BASE_ADDRESS 0x{base_address:08X}UL");
    let _ = writeln!(o, "#define SPLICE_WORD_BYTES {}", bus_width / 8);
    o.push('\n');

    // SET_ADDRESS (§6.1.1): function id -> bus address.
    if bus.memory_mapped {
        o.push_str(
            "#define SET_ADDRESS(id) \\\n    (SPLICE_BASE_ADDRESS + ((unsigned)(id) * SPLICE_WORD_BYTES))\n\n",
        );
    } else {
        o.push_str("/* opcode-coupled interface: the id selects the co-processor channel */\n");
        o.push_str("#define SET_ADDRESS(id) ((unsigned)(id))\n\n");
    }

    // Single-beat transfers. Memory-mapped buses use volatile stores/loads;
    // the FCB uses its dedicated co-processor opcodes (modelled as intrinsic
    // calls the cross-compiler lowers to the FCB instructions, §2.3.2).
    if !bus.memory_mapped {
        o.push_str("#define WRITE_SINGLE(a, p) __fcb_store((a), *(p))\n");
        o.push_str("#define READ_SINGLE(a, p)  (*(p) = __fcb_load(a))\n");
    } else {
        o.push_str(
            "#define WRITE_SINGLE(a, p) (*(volatile splice_word_t *)(a) = *(splice_word_t *)(p))\n",
        );
        o.push_str(
            "#define READ_SINGLE(a, p)  (*(splice_word_t *)(p) = *(volatile splice_word_t *)(a))\n",
        );
    }

    // Burst transfers: native where the bus has them, sequential singles
    // otherwise.
    if bus.supports_burst(2) {
        if !bus.memory_mapped {
            o.push_str("#define WRITE_DOUBLE(a, p) __fcb_store2((a), (p))\n");
            o.push_str("#define READ_DOUBLE(a, p)  __fcb_load2((a), (p))\n");
        } else {
            o.push_str("#define WRITE_DOUBLE(a, p) __splice_burst_store2((a), (p))\n");
            o.push_str("#define READ_DOUBLE(a, p)  __splice_burst_load2((a), (p))\n");
        }
    } else {
        o.push_str(
            "#define WRITE_DOUBLE(a, p) do { WRITE_SINGLE((a), (p)); \\\n    WRITE_SINGLE((a), ((splice_word_t *)(p)) + 1); } while (0)\n",
        );
        o.push_str(
            "#define READ_DOUBLE(a, p)  do { READ_SINGLE((a), (p)); \\\n    READ_SINGLE((a), ((splice_word_t *)(p)) + 1); } while (0)\n",
        );
    }
    if bus.supports_burst(4) {
        if !bus.memory_mapped {
            o.push_str("#define WRITE_QUAD(a, p)   __fcb_store4((a), (p))\n");
            o.push_str("#define READ_QUAD(a, p)    __fcb_load4((a), (p))\n");
        } else {
            o.push_str("#define WRITE_QUAD(a, p)   __splice_burst_store4((a), (p))\n");
            o.push_str("#define READ_QUAD(a, p)    __splice_burst_load4((a), (p))\n");
        }
    } else {
        o.push_str(
            "#define WRITE_QUAD(a, p)   do { WRITE_DOUBLE((a), (p)); \\\n    WRITE_DOUBLE((a), ((splice_word_t *)(p)) + 2); } while (0)\n",
        );
        o.push_str(
            "#define READ_QUAD(a, p)    do { READ_DOUBLE((a), (p)); \\\n    READ_DOUBLE((a), ((splice_word_t *)(p)) + 2); } while (0)\n",
        );
    }
    o.push('\n');

    // WAIT_FOR_RESULTS (§6.1.1): strictly synchronous buses poll the status
    // register at function id 0; pseudo-asynchronous buses need nothing.
    match bus.sync {
        SyncClass::StrictlySynchronous => {
            o.push_str(
                "#define WAIT_FOR_RESULTS(id) \\\n    do { splice_word_t __s; \\\n         do { READ_SINGLE(SET_ADDRESS(0), &__s); } \\\n         while (!((__s >> (id)) & 1u)); } while (0)\n",
            );
        }
        SyncClass::PseudoAsynchronous => {
            o.push_str(
                "/* pseudo asynchronous interface: per-beat handshakes already order\n   transactions, so the barrier is a NULL statement (§6.1.1). */\n",
            );
            o.push_str("#define WAIT_FOR_RESULTS(id) ((void)0)\n");
        }
    }
    o.push('\n');

    // Optional DMA macros.
    if bus.dma() {
        let _ = writeln!(o, "#define SPLICE_DMA_MAX_BYTES {}", bus.dma_max_bytes);
        o.push_str("#define WRITE_DMA(a, p, n) __splice_dma_store((a), (p), (n))\n");
        o.push_str("#define READ_DMA(a, p, n)  __splice_dma_load((a), (p), (n))\n");
    } else {
        o.push_str("/* this interface has no physical DMA channels: the DMA macros are\n   deliberately left undefined so misuse fails at compile time (§3.1.5). */\n");
    }
    if irq {
        o.push_str(
            "/* completion interrupts (%irq_support): WAIT_FOR_IRQ parks the CPU\n   until the peripheral raises the interrupt for function `id`, then\n   acknowledges it at the interrupt controller. */\n",
        );
        o.push_str("#define WAIT_FOR_IRQ(id) __splice_wait_irq(id)\n");
        o.push_str("#define ACK_IRQ(id)      __splice_ack_irq(id)\n");
        o.push('\n');
    }
    o.push('\n');
    primitive_prototypes(&mut o, bus, irq);
    o.push_str("#endif /* SPLICE_LIB_H */\n");
    o
}

/// Declare every bus primitive the macros of [`macro_header_with_irq`]
/// call, so drivers compile where implicit declarations are errors (C99
/// onwards). The target's board support package defines them.
fn primitive_prototypes(o: &mut String, bus: &BusCaps, irq: bool) {
    let mut p = String::new();
    let prefix = if bus.memory_mapped { "__splice_burst" } else { "__fcb" };
    if !bus.memory_mapped {
        p.push_str("void __fcb_store(unsigned long id, splice_word_t value);\n");
        p.push_str("splice_word_t __fcb_load(unsigned long id);\n");
    }
    for n in [2, 4].into_iter().filter(|&n| bus.supports_burst(n)) {
        let _ = writeln!(p, "void {prefix}_store{n}(unsigned long addr, const void *src);");
        let _ = writeln!(p, "void {prefix}_load{n}(unsigned long addr, void *dst);");
    }
    if bus.dma() {
        p.push_str(
            "void __splice_dma_store(unsigned long addr, const void *src, unsigned long bytes);\n",
        );
        p.push_str("void __splice_dma_load(unsigned long addr, void *dst, unsigned long bytes);\n");
    }
    if irq {
        p.push_str("void __splice_wait_irq(unsigned id);\nvoid __splice_ack_irq(unsigned id);\n");
    }
    if !p.is_empty() {
        o.push_str("/* bus primitives the macros above call (board support package) */\n");
        o.push_str(&p);
        o.push('\n');
    }
}

/// Generate the Linux-targeted `splice_lib_linux.h` (thesis future work
/// §10.2: "producing driver code pre-targeted to the Linux operating
/// system ... could be added through simple physical-to-virtual memory
/// mapping macros"). The header mmaps the peripheral's physical window
/// through `/dev/mem` and redefines `SET_ADDRESS` against the virtual
/// base; every transaction macro then works unchanged in user space.
pub fn linux_macro_header(bus: &BusCaps, bus_width: u32, base_address: u64) -> String {
    let mut o = String::new();
    let name = bus.kind.name();
    let _ =
        writeln!(o, "/* splice_lib_linux.h — {name} transaction macros for Linux user space */");
    o.push_str("#ifndef SPLICE_LIB_LINUX_H\n#define SPLICE_LIB_LINUX_H\n\n");
    o.push_str(
        "#include <fcntl.h>\n#include <stdint.h>\n#include <sys/mman.h>\n#include <unistd.h>\n\n",
    );
    let _ = writeln!(o, "typedef {} splice_word_t;", word_type(bus_width));
    let _ = writeln!(o, "#define SPLICE_PHYS_BASE 0x{base_address:08X}UL");
    let _ = writeln!(o, "#define SPLICE_WORD_BYTES {}", bus_width / 8);
    o.push_str("#define SPLICE_MAP_LEN 0x1000UL\n\n");
    o.push_str(
        "/* Map the peripheral window once; SET_ADDRESS works against the\n   virtual base thereafter (physical-to-virtual mapping, thesis 10.2).\n   mmap takes a page-aligned offset, so map the page holding the base\n   and step to the base inside it. */\n",
    );
    o.push_str("static volatile splice_word_t *splice_virt_base;\n\n");
    o.push_str(
        "static inline int splice_map(void)\n{\n\
    \x20   unsigned long in_page = SPLICE_PHYS_BASE % (unsigned long)sysconf(_SC_PAGESIZE);\n\
    \x20   void *page;\n\
    \x20   int fd = open(\"/dev/mem\", O_RDWR | O_SYNC);\n\
    \x20   if (fd < 0) return -1;\n\
    \x20   page = mmap(0, SPLICE_MAP_LEN + in_page, PROT_READ | PROT_WRITE, MAP_SHARED, fd,\n\
    \x20       (off_t)(SPLICE_PHYS_BASE - in_page));\n\
    \x20   close(fd);\n\
    \x20   if (page == MAP_FAILED) return -1;\n\
    \x20   splice_virt_base = (volatile splice_word_t *)((char *)page + in_page);\n\
    \x20   return 0;\n}\n\n",
    );
    o.push_str("#define SET_ADDRESS(id) ((uintptr_t)(splice_virt_base + (id)))\n\n");
    if !bus.memory_mapped {
        o.push_str(
            "#error \"opcode-coupled interfaces (FCB) have no memory window to map on Linux\"\n",
        );
    }
    o.push_str(
        "#define WRITE_SINGLE(a, p) (*(volatile splice_word_t *)(a) = *(splice_word_t *)(p))\n",
    );
    o.push_str(
        "#define READ_SINGLE(a, p)  (*(splice_word_t *)(p) = *(volatile splice_word_t *)(a))\n",
    );
    o.push_str(
        "#define WRITE_DOUBLE(a, p) do { WRITE_SINGLE((a), (p)); \\\n    WRITE_SINGLE((a), ((splice_word_t *)(p)) + 1); } while (0)\n",
    );
    o.push_str(
        "#define READ_DOUBLE(a, p)  do { READ_SINGLE((a), (p)); \\\n    READ_SINGLE((a), ((splice_word_t *)(p)) + 1); } while (0)\n",
    );
    o.push_str(
        "#define WRITE_QUAD(a, p)   do { WRITE_DOUBLE((a), (p)); \\\n    WRITE_DOUBLE((a), ((splice_word_t *)(p)) + 2); } while (0)\n",
    );
    o.push_str(
        "#define READ_QUAD(a, p)    do { READ_DOUBLE((a), (p)); \\\n    READ_DOUBLE((a), ((splice_word_t *)(p)) + 2); } while (0)\n\n",
    );
    match bus.sync {
        SyncClass::StrictlySynchronous => {
            o.push_str(
                "#define WAIT_FOR_RESULTS(id) \\\n    do { splice_word_t __s; \\\n         do { READ_SINGLE(SET_ADDRESS(0), &__s); } \\\n         while (!((__s >> (id)) & 1u)); } while (0)\n",
            );
        }
        SyncClass::PseudoAsynchronous => {
            o.push_str("#define WAIT_FOR_RESULTS(id) ((void)0)\n");
        }
    }
    o.push_str("\n#endif /* SPLICE_LIB_LINUX_H */\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_spec::bus::{BusCaps, BusKind};

    #[test]
    fn every_required_macro_defined_for_every_bus() {
        for kind in BusKind::all() {
            let caps = BusCaps::builtin(kind);
            let width = caps.widths[0];
            let h = macro_header(&caps, width, 0x8000_0000);
            for m in REQUIRED_MACROS {
                assert!(
                    h.contains(&format!("#define {m}")) || h.contains(&format!("#define {m}(")),
                    "{kind}: missing {m}\n{h}"
                );
            }
        }
    }

    #[test]
    fn dma_macros_only_on_dma_buses() {
        let plb = macro_header(&BusCaps::builtin(BusKind::Plb), 32, 0);
        assert!(plb.contains("#define WRITE_DMA"));
        assert!(plb.contains("SPLICE_DMA_MAX_BYTES 256"));
        let fcb = macro_header(&BusCaps::builtin(BusKind::Fcb), 32, 0);
        assert!(!fcb.contains("#define WRITE_DMA"));
        assert!(fcb.contains("deliberately left undefined"));
    }

    #[test]
    fn burstless_buses_fall_back_to_singles() {
        let opb = macro_header(&BusCaps::builtin(BusKind::Opb), 32, 0);
        assert!(opb.contains("#define WRITE_QUAD(a, p)   do { WRITE_DOUBLE"));
        let fcb = macro_header(&BusCaps::builtin(BusKind::Fcb), 32, 0);
        assert!(fcb.contains("__fcb_store4"));
    }

    #[test]
    fn apb_polls_plb_does_not() {
        let apb = macro_header(&BusCaps::builtin(BusKind::Apb), 32, 0);
        assert!(apb.contains("while (!((__s >> (id)) & 1u));"));
        let plb = macro_header(&BusCaps::builtin(BusKind::Plb), 32, 0);
        assert!(plb.contains("#define WAIT_FOR_RESULTS(id) ((void)0)"));
    }

    #[test]
    fn fcb_is_opcode_addressed() {
        let fcb = macro_header(&BusCaps::builtin(BusKind::Fcb), 32, 0);
        assert!(fcb.contains("#define SET_ADDRESS(id) ((unsigned)(id))"));
        assert!(fcb.contains("__fcb_store"));
    }

    #[test]
    fn linux_header_maps_dev_mem() {
        let h = linux_macro_header(&BusCaps::builtin(BusKind::Plb), 32, 0x8000_0000);
        assert!(h.contains("/dev/mem"), "{h}");
        assert!(h.contains("mmap("), "{h}");
        assert!(h.contains("SPLICE_PHYS_BASE 0x80000000UL"), "{h}");
        assert!(h.contains("#include <stdint.h>"), "SET_ADDRESS uses uintptr_t\n{h}");
        assert!(h.contains("(off_t)(SPLICE_PHYS_BASE - in_page)"), "page-aligned offset\n{h}");
        assert!(
            h.contains("#define SET_ADDRESS(id) ((uintptr_t)(splice_virt_base + (id)))"),
            "{h}"
        );
        for m in REQUIRED_MACROS {
            assert!(
                h.contains(&format!("#define {m}(")) || h.contains(&format!("#define {m} ")),
                "linux header missing {m}\n{h}"
            );
        }
    }

    #[test]
    fn every_called_primitive_is_declared() {
        for kind in BusKind::all() {
            for irq in [false, true] {
                let caps = BusCaps::builtin(kind);
                let h = macro_header_with_irq(&caps, caps.widths[0], 0x8000_0000, irq);
                let (macros, decls): (Vec<&str>, Vec<&str>) =
                    h.lines().partition(|l| l.starts_with("#define"));
                for line in &macros {
                    for (i, _) in line.match_indices("__") {
                        let name: String = line[i..]
                            .chars()
                            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                            .collect();
                        if line[i + name.len()..].starts_with('(') {
                            let call = format!(" {name}(");
                            assert!(
                                decls.iter().any(|d| d.contains(&call)),
                                "{kind} irq={irq}: `{name}` is called but not declared\n{h}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linux_header_rejects_opcode_coupled_buses() {
        let h = linux_macro_header(&BusCaps::builtin(BusKind::Fcb), 32, 0);
        assert!(h.contains("#error"), "{h}");
    }

    #[test]
    fn base_address_embedded() {
        let h = macro_header(&BusCaps::builtin(BusKind::Plb), 32, 0x8000_401C);
        assert!(h.contains("0x8000401CUL"));
    }
}
