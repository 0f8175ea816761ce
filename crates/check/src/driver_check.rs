//! Driver/HDL cross-layer verification.
//!
//! The generated C driver and the generated HDL are two independent
//! renderings of the same contract: the register map, the function-id
//! encoding, and the per-transfer beat schedule. This pass re-derives the
//! driver's view of that contract *from the emitted C text* — not from the
//! IR that produced it — and checks it against both the IR and the HDL
//! module ASTs:
//!
//! * **SL0407** — the `#define <NAME>_ID` value, the stub's `MY_FUNC_ID`
//!   constant, the arbiter's per-line mux arms and the instance count must
//!   all agree on the function-id encoding.
//! * **SL0408** — `SPLICE_BASE_ADDRESS`, `SPLICE_WORD_BYTES` and the
//!   `SET_ADDRESS` form must match the bus register map.
//! * **SL0409** — the transaction-macro beat counts in each driver body
//!   (singles, doubles, quads, runtime-bounded loops, DMA byte counts) must
//!   match the ICOB beat schedule and the HDL `*_max_value` / `*_bound`
//!   tracking logic.
//! * **SL0410** — macro *usage* must match the bus capabilities and SIS
//!   mode: `WAIT_FOR_RESULTS` polls iff the bus is strictly synchronous,
//!   appears iff the function is not `nowait`, the DMA macros exist iff the
//!   bus is DMA-capable, and a body uses them iff one of its `^` transfers
//!   can reach [`DMA_MIN_BEATS`] (a runtime count, or a static one of at
//!   least that many beats).

use splice_core::{BeatCount, DesignIr, FunctionStub, StubState};
use splice_driver::lower::DMA_MIN_BEATS;
use splice_hdl::{Decl, Item, Module, Stmt};
use splice_lint::{Diagnostic, Layer, LintReport, Location};
use splice_spec::bus::SyncClass;
use splice_spec::validate::ValidatedFunction;

/// The driver-side transfer profile of one function, recovered from the
/// generated C text.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct CProfile {
    /// Statically emitted write beats (singles + 2×doubles + 4×quads +
    /// literal single-beat loop bounds + DMA word counts).
    writes: u64,
    /// Statically emitted read beats.
    reads: u64,
    /// A runtime-bounded write (loop or DMA) is present.
    dyn_writes: bool,
    /// A runtime-bounded read (loop or DMA) is present.
    dyn_reads: bool,
    /// `WRITE_DMA` is used.
    dma_write: bool,
    /// `READ_DMA` is used.
    dma_read: bool,
    /// The blocking-void sync read (`READ_SINGLE(..., &splice_sync)`).
    sync_read: bool,
    /// `WAIT_FOR_RESULTS` appears in the body.
    waits: bool,
}

/// Scan one driver function body for its transaction-macro footprint.
fn scan_body(body: &str) -> CProfile {
    let mut p = CProfile::default();
    for line in body.lines() {
        if line.contains("&splice_sync") {
            p.sync_read = true;
            continue;
        }
        if line.contains("&__go") {
            // Parameterless strict-sync activation: not a data beat.
            continue;
        }
        if line.contains("WAIT_FOR_RESULTS(") {
            p.waits = true;
        }
        if line.contains("WRITE_DMA(") || line.contains("READ_DMA(") {
            let write = line.contains("WRITE_DMA(");
            match dma_words(line) {
                Some(n) if write => p.writes += n,
                Some(n) => p.reads += n,
                None if write => p.dyn_writes = true,
                None => p.dyn_reads = true,
            }
            if write {
                p.dma_write = true;
            } else {
                p.dma_read = true;
            }
            continue;
        }
        if let Some(bound) = loop_bound(line) {
            let write = line.contains("WRITE_");
            match bound {
                Some(n) if write => p.writes += n,
                Some(n) => p.reads += n,
                None if write => p.dyn_writes = true,
                None => p.dyn_reads = true,
            }
            continue;
        }
        for (marker, beats, write) in [
            ("WRITE_SINGLE(", 1, true),
            ("WRITE_DOUBLE(", 2, true),
            ("WRITE_QUAD(", 4, true),
            ("READ_SINGLE(", 1, false),
            ("READ_DOUBLE(", 2, false),
            ("READ_QUAD(", 4, false),
        ] {
            if line.contains(marker) {
                if write {
                    p.writes += beats;
                } else {
                    p.reads += beats;
                }
            }
        }
    }
    p
}

/// Parse the word count of a `WRITE_DMA`/`READ_DMA` line:
/// `..., <n> * SPLICE_WORD_BYTES);` — `Some(n)` when the count is a
/// literal, `None` when it is a runtime expression.
fn dma_words(line: &str) -> Option<u64> {
    let end = line.find(" * SPLICE_WORD_BYTES")?;
    let head = &line[..end];
    let start = head.rfind(", ")? + 2;
    head[start..].trim().parse().ok()
}

/// Detect a transfer loop `for (<init>; <test>; <step>)`. Returns
/// `Some(Some(n))` for a single-beat loop with a literal bound
/// (`__i < n`), `Some(None)` for a runtime-bounded loop (`__i < (unsigned)(x)`,
/// or a burst loop `__i + 4 <= (unsigned)(x)`), `None` when the line is not
/// a loop.
fn loop_bound(line: &str) -> Option<Option<u64>> {
    let at = line.find("for (")?;
    let test = line[at..].split(';').nth(1)?.trim();
    Some(test.strip_prefix("__i < ").and_then(|n| n.trim().parse().ok()))
}

/// Whether a transfer state can move by DMA: its I/O is declared `^` and
/// its beat count is runtime or reaches [`DMA_MIN_BEATS`].
fn reaches_dma(f: &ValidatedFunction, state: &StubState) -> bool {
    let (io, beats) = match state {
        StubState::Input { io, beats, .. } => (f.inputs.get(*io), beats),
        StubState::Output { beats, .. } => (f.output.as_ref(), beats),
        StubState::Calc | StubState::PseudoOutput => return false,
    };
    io.is_some_and(|io| io.dma)
        && match beats {
            BeatCount::Static(n) => *n >= DMA_MIN_BEATS,
            BeatCount::Dynamic { .. } => true,
        }
}

/// The beat schedule the ICOB commits to, derived from the IR.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct IrProfile {
    writes: u64,
    reads: u64,
    dyn_writes: bool,
    dyn_reads: bool,
    /// The stub ends in a pseudo-output state (blocking `void`).
    pseudo: bool,
}

fn ir_profile(stub: &FunctionStub) -> IrProfile {
    let mut p = IrProfile::default();
    for st in &stub.states {
        match st {
            StubState::Input { beats: BeatCount::Static(n), .. } => p.writes += n,
            StubState::Input { beats: BeatCount::Dynamic { .. }, .. } => p.dyn_writes = true,
            StubState::Output { beats: BeatCount::Static(n), .. } => p.reads += n,
            StubState::Output { beats: BeatCount::Dynamic { .. }, .. } => p.dyn_reads = true,
            StubState::PseudoOutput => p.pseudo = true,
            StubState::Calc => {}
        }
    }
    p
}

/// Slice the body of one driver function out of the generated C source.
/// Bodies are delimited by the `/* ID Used to Target <name> */` banners.
fn function_body<'a>(driver_c: &'a str, name: &str) -> Option<&'a str> {
    let banner = format!("/* ID Used to Target {name} */");
    let start = driver_c.find(&banner)?;
    let rest = &driver_c[start + banner.len()..];
    let end = rest.find("/* ID Used to Target ").unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Parse `#define <macro> <value>` out of C text (decimal value).
fn define_value(text: &str, name: &str) -> Option<u64> {
    let key = format!("#define {name} ");
    let at = text.find(&key)?;
    let rest = text[at + key.len()..].lines().next()?;
    rest.trim().parse().ok()
}

/// Parse `#define <macro> 0x<hex>UL`.
fn define_hex(text: &str, name: &str) -> Option<u64> {
    let key = format!("#define {name} 0x");
    let at = text.find(&key)?;
    let rest = text[at + key.len()..].lines().next()?;
    u64::from_str_radix(rest.trim().trim_end_matches("UL"), 16).ok()
}

/// The value of a named constant declared in an HDL module.
fn module_constant(m: &Module, name: &str) -> Option<u64> {
    m.decls.iter().find_map(|d| match d {
        Decl::Constant { name: n, value, .. } if n == name => Some(*value),
        _ => None,
    })
}

/// True when the module declares a signal with this name.
fn has_signal(m: &Module, name: &str) -> bool {
    m.decls.iter().any(|d| matches!(d, Decl::Signal { name: n, .. } if n == name))
}

/// The case-arm selector values of the arbiter mux process for `line`.
fn mux_arm_ids(arbiter: &Module, line: &str) -> Option<Vec<u64>> {
    let label = format!("mux_{}", line.to_ascii_lowercase());
    for item in &arbiter.items {
        if let Item::Process(p) = item {
            if p.label == label {
                for stmt in &p.body {
                    if let Stmt::Case { arms, .. } = stmt {
                        let mut ids: Vec<u64> = arms.iter().map(|(v, _)| *v).collect();
                        ids.sort_unstable();
                        return Some(ids);
                    }
                }
            }
        }
    }
    None
}

/// Cross-check the generated driver sources against the IR and the
/// generated HDL. `lib_h` is the `splice_lib.h` text, `driver_c` the
/// `<dev>_driver.c` text; findings go into `report` at [`Layer::Driver`].
pub fn cross_check(
    ir: &DesignIr,
    modules: &[Module],
    lib_h: &str,
    driver_c: &str,
    report: &mut LintReport,
) {
    let p = &ir.module.params;
    let dev = &p.device_name;
    let err = |code, loc: Location, msg: String| Diagnostic::error(code, Layer::Driver, loc, msg);

    // --- SL0408: register-map macros ------------------------------------
    match define_hex(lib_h, "SPLICE_BASE_ADDRESS") {
        Some(v) if v != p.base_address => report.push(err(
            "SL0408",
            Location::path("splice_lib.h"),
            format!(
                "SPLICE_BASE_ADDRESS is 0x{v:08X} but the specification sets 0x{:08X}",
                p.base_address
            ),
        )),
        Some(_) => {}
        None => report.push(err(
            "SL0408",
            Location::path("splice_lib.h"),
            "SPLICE_BASE_ADDRESS is missing from the transaction-macro header".into(),
        )),
    }
    match define_value(lib_h, "SPLICE_WORD_BYTES") {
        Some(v) if v != (p.bus_width / 8) as u64 => report.push(err(
            "SL0408",
            Location::path("splice_lib.h"),
            format!("SPLICE_WORD_BYTES is {v} but the bus width is {} bits", p.bus_width),
        )),
        Some(_) => {}
        None => report.push(err(
            "SL0408",
            Location::path("splice_lib.h"),
            "SPLICE_WORD_BYTES is missing from the transaction-macro header".into(),
        )),
    }
    let set_addr_ok = if p.bus.memory_mapped {
        lib_h.contains("SPLICE_BASE_ADDRESS + ((unsigned)(id) * SPLICE_WORD_BYTES)")
    } else {
        lib_h.contains("#define SET_ADDRESS(id) ((unsigned)(id))")
    };
    if !set_addr_ok {
        report.push(err(
            "SL0408",
            Location::path("splice_lib.h"),
            format!(
                "SET_ADDRESS does not use the {} form the `{}` bus requires",
                if p.bus.memory_mapped { "memory-mapped base+offset" } else { "opcode-coupled" },
                p.bus.kind
            ),
        ));
    }

    // --- SL0410: capability macros --------------------------------------
    let wait_ok = match p.bus.sync {
        SyncClass::StrictlySynchronous => lib_h.contains("READ_SINGLE(SET_ADDRESS(0)"),
        SyncClass::PseudoAsynchronous => lib_h.contains("#define WAIT_FOR_RESULTS(id) ((void)0)"),
    };
    if !wait_ok {
        report.push(err(
            "SL0410",
            Location::path("splice_lib.h"),
            format!(
                "WAIT_FOR_RESULTS does not match the bus synchronization class ({:?})",
                p.bus.sync
            ),
        ));
    }
    let dma_defined = lib_h.contains("#define WRITE_DMA(");
    if dma_defined != p.bus.dma {
        report.push(err(
            "SL0410",
            Location::path("splice_lib.h"),
            if p.bus.dma {
                format!("the `{}` bus offers DMA but the DMA macros are undefined", p.bus.kind)
            } else {
                format!("DMA macros are defined but the `{}` bus has no DMA channels", p.bus.kind)
            },
        ));
    }
    if p.bus.dma {
        match define_value(lib_h, "SPLICE_DMA_MAX_BYTES") {
            Some(v) if v != p.bus.dma_max_bytes as u64 => report.push(err(
                "SL0410",
                Location::path("splice_lib.h"),
                format!(
                    "SPLICE_DMA_MAX_BYTES is {v} but the `{}` bus moves at most {} bytes",
                    p.bus.kind, p.bus.dma_max_bytes
                ),
            )),
            _ => {}
        }
    }

    // --- per-function checks --------------------------------------------
    let arbiter = modules.iter().find(|m| m.name == format!("user_{dev}"));
    for stub in &ir.stubs {
        let floc = |detail: &str| Location::path(format!("{}_driver.c {}{detail}", dev, stub.name));
        let id_macro = format!("{}_ID", stub.name.to_ascii_uppercase());

        // SL0407: the C id macro vs the IR id.
        match define_value(driver_c, &id_macro) {
            Some(v) if v != stub.first_func_id as u64 => report.push(err(
                "SL0407",
                floc(""),
                format!(
                    "#define {id_macro} is {v} but the hardware decodes function id {}",
                    stub.first_func_id
                ),
            )),
            Some(_) => {}
            None => report.push(err(
                "SL0407",
                floc(""),
                format!("#define {id_macro} is missing from the driver source"),
            )),
        }

        // SL0407: the stub module's MY_FUNC_ID constant.
        let mod_name = format!("func_{}", stub.name);
        let stub_mod = modules.iter().find(|m| m.name == mod_name);
        match stub_mod.and_then(|m| module_constant(m, "MY_FUNC_ID")) {
            Some(v) if v != stub.first_func_id as u64 => report.push(err(
                "SL0407",
                Location::signal(&mod_name, "MY_FUNC_ID"),
                format!("MY_FUNC_ID is {v} but the driver targets id {}", stub.first_func_id),
            )),
            Some(_) => {}
            None => report.push(err(
                "SL0407",
                Location::path(&mod_name),
                "the stub module declares no MY_FUNC_ID constant".into(),
            )),
        }

        // SL0407: arbiter instance count.
        if let Some(arb) = arbiter {
            let count = arb
                .items
                .iter()
                .filter(|i| matches!(i, Item::Instance(inst) if inst.module == mod_name))
                .count();
            if count != stub.instances as usize {
                report.push(err(
                    "SL0407",
                    Location::path(format!("user_{dev}")),
                    format!(
                        "the arbiter instantiates `{mod_name}` {count} time(s) but the driver \
                         expects {} instance(s)",
                        stub.instances
                    ),
                ));
            }
        }

        // SL0409 / SL0410: the body's transfer footprint.
        let Some(body) = function_body(driver_c, &stub.name) else {
            report.push(err(
                "SL0409",
                floc(""),
                format!("the driver source has no body for `{}`", stub.name),
            ));
            continue;
        };
        let c = scan_body(body);
        let want = ir_profile(stub);
        if c.writes != want.writes || c.dyn_writes != want.dyn_writes {
            report.push(err(
                "SL0409",
                floc(" inputs"),
                format!(
                    "the driver writes {}{} beat(s) but the FSM schedule accepts {}{}",
                    c.writes,
                    if c.dyn_writes { " + runtime-bounded" } else { "" },
                    want.writes,
                    if want.dyn_writes { " + runtime-bounded" } else { "" },
                ),
            ));
        }
        let want_static_reads = want.reads;
        if c.reads != want_static_reads || c.dyn_reads != want.dyn_reads {
            report.push(err(
                "SL0409",
                floc(" output"),
                format!(
                    "the driver reads {}{} beat(s) but the FSM schedule produces {}{}",
                    c.reads,
                    if c.dyn_reads { " + runtime-bounded" } else { "" },
                    want_static_reads,
                    if want.dyn_reads { " + runtime-bounded" } else { "" },
                ),
            ));
        }
        if want.pseudo && !stub.nowait && !c.sync_read {
            report.push(err(
                "SL0409",
                floc(""),
                "the FSM has a pseudo-output state but the driver never reads the sync word".into(),
            ));
        }
        if c.waits == stub.nowait {
            report.push(err(
                "SL0410",
                floc(""),
                if stub.nowait {
                    "a `nowait` driver must not call WAIT_FOR_RESULTS".to_owned()
                } else {
                    "the driver never calls WAIT_FOR_RESULTS before reading results".to_owned()
                },
            ));
        }
        let f = ir.module.function(&stub.name);
        let want_dma = f.is_some_and(|f| stub.states.iter().any(|st| reaches_dma(f, st)));
        if (c.dma_write || c.dma_read) != want_dma {
            report.push(err(
                "SL0410",
                floc(""),
                if want_dma {
                    "the FSM expects DMA transfers but the driver uses beat macros".to_owned()
                } else {
                    format!(
                        "the driver uses DMA macros but no transfer of this function is DMA \
                         of at least {DMA_MIN_BEATS} beats"
                    )
                },
            ));
        }

        // SL0409: the HDL tracking constants vs the IR schedule.
        if let Some(m) = stub_mod {
            for st in &stub.states {
                let (name, n) = match st {
                    StubState::Input { io, beats: BeatCount::Static(n), .. } if *n > 1 => {
                        match f.and_then(|f| f.inputs.get(*io)) {
                            Some(input) => (input.name.clone(), *n),
                            None => continue,
                        }
                    }
                    StubState::Output { beats: BeatCount::Static(n), .. } if *n > 1 => {
                        ("result".to_owned(), *n)
                    }
                    StubState::Input { beats: BeatCount::Dynamic { .. }, io, .. } => {
                        let Some(input) = f.and_then(|f| f.inputs.get(*io)) else { continue };
                        if !has_signal(m, &format!("{}_bound", input.name)) {
                            report.push(err(
                                "SL0409",
                                Location::signal(&mod_name, &format!("{}_bound", input.name)),
                                format!(
                                    "`{}` is runtime-bounded but the stub has no bound latch",
                                    input.name
                                ),
                            ));
                        }
                        continue;
                    }
                    _ => continue,
                };
                let cname = format!("{name}_max_value");
                match module_constant(m, &cname) {
                    Some(v) if v != n - 1 => report.push(err(
                        "SL0409",
                        Location::signal(&mod_name, &cname),
                        format!("{cname} is {v} but the schedule transfers {n} beat(s)"),
                    )),
                    Some(_) => {}
                    None => report.push(err(
                        "SL0409",
                        Location::signal(&mod_name, &cname),
                        format!("missing {cname} constant for a {n}-beat transfer"),
                    )),
                }
            }
        }
    }

    // --- SL0407: arbiter mux arm coverage -------------------------------
    if let Some(arb) = arbiter {
        let mut ids: Vec<u64> = ir.arbiter_entries().iter().map(|&(_, _, id)| id as u64).collect();
        ids.sort_unstable();
        for line in ["IO_DONE", "DATA_OUT_VALID", "DATA_OUT"] {
            let mut want = ids.clone();
            if line == "DATA_OUT" {
                // Reserved id 0 answers status reads on the data mux.
                want.insert(0, 0);
            }
            match mux_arm_ids(arb, line) {
                Some(got) if got != want => report.push(err(
                    "SL0407",
                    Location::signal(&format!("user_{dev}"), line),
                    format!("the {line} mux decodes ids {got:?} but the driver encodes {want:?}"),
                )),
                Some(_) => {}
                None => report.push(err(
                    "SL0407",
                    Location::signal(&format!("user_{dev}"), line),
                    format!("the arbiter has no {line} mux process"),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_counts_singles_doubles_quads_and_loops() {
        let body = "\
    WRITE_SINGLE(func_addr, &x);\n\
    WRITE_DOUBLE(func_addr, &y);\n\
    WRITE_QUAD(func_addr, ((splice_word_t *)z) + 0);\n\
    { unsigned __i; for (__i = 0; __i < 5; ++__i) WRITE_SINGLE(func_addr, ((splice_word_t *)w) + __i); }\n\
    WAIT_FOR_RESULTS(F_ID);\n\
    READ_SINGLE(func_addr, &result);\n";
        let p = scan_body(body);
        assert_eq!(p.writes, 1 + 2 + 4 + 5);
        assert_eq!(p.reads, 1);
        assert!(p.waits && !p.dyn_writes && !p.sync_read);
    }

    #[test]
    fn scan_flags_runtime_loops_and_sync_reads() {
        let body = "\
    { unsigned __i; for (__i = 0; __i < (unsigned)(x); ++__i) WRITE_SINGLE(func_addr, ((splice_word_t *)y) + __i); }\n\
    READ_SINGLE(func_addr, &splice_sync);\n";
        let p = scan_body(body);
        assert_eq!(p.writes, 0);
        assert!(p.dyn_writes && p.sync_read);
        assert_eq!(p.reads, 0);
    }

    #[test]
    fn scan_flags_burst_loops_and_runtime_dma() {
        let body = "\
    { unsigned __i; for (__i = 0; __i + 4 <= (unsigned)(n); __i += 4) WRITE_QUAD(func_addr, ((splice_word_t *)x) + __i);\n\
      for (; __i + 2 <= (unsigned)(n); __i += 2) WRITE_DOUBLE(func_addr, ((splice_word_t *)x) + __i);\n\
      for (; __i < (unsigned)(n); ++__i) WRITE_SINGLE(func_addr, ((splice_word_t *)x) + __i); }\n\
    if ((unsigned)(m) >= 5) READ_DMA(func_addr, (splice_word_t *)result, m * SPLICE_WORD_BYTES);\n\
    else { unsigned __i; for (__i = 0; __i < (unsigned)(m); ++__i) READ_SINGLE(func_addr, ((splice_word_t *)result) + __i); }\n";
        let p = scan_body(body);
        assert_eq!((p.writes, p.reads), (0, 0));
        assert!(p.dyn_writes && p.dyn_reads && p.dma_read && !p.dma_write);
    }

    #[test]
    fn scan_counts_dma_words() {
        let body = "    WRITE_DMA(func_addr, (splice_word_t *)x, 16 * SPLICE_WORD_BYTES);\n";
        let p = scan_body(body);
        assert_eq!(p.writes, 16);
        assert!(p.dma_write && !p.dma_read);
    }

    #[test]
    fn define_parsers() {
        let h = "#define SPLICE_BASE_ADDRESS 0x80000000UL\n#define SPLICE_WORD_BYTES 4\n";
        assert_eq!(define_hex(h, "SPLICE_BASE_ADDRESS"), Some(0x8000_0000));
        assert_eq!(define_value(h, "SPLICE_WORD_BYTES"), Some(4));
        assert_eq!(define_value(h, "MISSING"), None);
    }

    #[test]
    fn body_slicing_is_banner_delimited() {
        let c = "/* ID Used to Target f */\nbody-f\n/* ID Used to Target g */\nbody-g\n";
        assert_eq!(function_body(c, "f"), Some("\nbody-f\n"));
        assert_eq!(function_body(c, "g"), Some("\nbody-g\n"));
        assert_eq!(function_body(c, "h"), None);
    }
}
