//! The C driver Splice emits, compiled and executed.
//!
//! `lower_call` turns a driver call into the bus operations the simulator
//! times, and `driver_source` prints the same transfer plan as C. These
//! tests compile that C with `cc` against a harness `splice_lib.h` whose
//! macros print one line per bus transaction (kind, address, beats) instead
//! of touching hardware, call every function with seeded arguments, and
//! compare the printed log with `lower_call`'s operations for the same
//! arguments, op for op. `Compute` operations move nothing and are dropped.
//! Data values are out of scope: the C reads memory in the host's byte
//! order, and the target (PPC405) is big-endian.
//!
//! The corpus is the five example specs, the three Splice builds of Fig 9.2
//! over scenarios S1–S4, the benchmark's idle `nowait` device and specs from
//! `splice_testutil::arb_spec`. Two more tests compile the example and
//! Fig 9.2 drivers against the `splice_lib.h` Splice emits with warnings
//! as errors, and a use of `splice_lib_linux.h`; a last one checks that
//! both headers' `splice_word_t` is one bus word at every Wishbone width.

use splice_devices::interp::{interp_spec, Scenario};
use splice_driver::cgen::{driver_header, driver_source};
use splice_driver::lower::{func_address, lower_call};
use splice_driver::macros::{linux_macro_header, macro_header_with_irq, word_type};
use splice_driver::program::{BusOp, CallArgs, CallValue};
use splice_spec::validate::{IoBound, ModuleSpec, ValidatedFunction};
use splice_testutil::{arb_spec, seed_for, Rng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Flags a driver must compile under; the int-to-pointer casts are a
/// 32-bit target's memory map seen from a 64-bit host.
const STRICT: &[&str] = &["-std=c99", "-pedantic", "-Wall", "-Werror", "-Wno-int-to-pointer-cast"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splice-driver-c-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `cc` in `dir`; panic with its diagnostics and `context` on failure.
fn cc(dir: &Path, args: &[&str], context: &str) {
    let out = Command::new("cc").current_dir(dir).args(args).output().expect("cc runs");
    assert!(
        out.status.success(),
        "cc {args:?} failed:\n{}\n{context}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn example_specs() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    specs.sort();
    specs
}

/// The three Splice builds of Fig 9.2: simple PLB, FCB with bursts, PLB
/// with DMA.
fn fig_9_2_builds() -> Vec<(String, String)> {
    let fcb = interp_spec("fcb", false)
        .replace("%bus_width 32\n", "%bus_width 32\n%burst_support true\n");
    vec![
        ("plb".into(), interp_spec("plb", false)),
        ("fcb".into(), fcb),
        ("dma".into(), interp_spec("plb", true)),
    ]
}

fn module(spec: &str) -> ModuleSpec {
    splice_spec::parse_and_validate(spec).unwrap_or_else(|e| panic!("{e:?}\n{spec}")).module
}

/// The logging `splice_lib.h`: each macro prints the line [`op_line`]
/// prints for the operation it stands for. Bursts the bus lacks expand to
/// narrower transfers and DMA splits at `SPLICE_DMA_MAX_BYTES`, as in the
/// header Splice emits.
fn harness_header(m: &ModuleSpec) -> String {
    let p = &m.params;
    let mut h = String::from("#include <stdio.h>\n");
    let _ = writeln!(h, "typedef {} splice_word_t;", word_type(p.bus_width));
    let _ = writeln!(h, "#define SPLICE_WORD_BYTES {}", p.bus_width / 8);
    if p.bus.memory_mapped {
        let _ = writeln!(
            h,
            "#define SET_ADDRESS(id) (0x{:X}UL + (unsigned long)(id) * SPLICE_WORD_BYTES)",
            p.base_address
        );
    } else {
        h.push_str("#define SET_ADDRESS(id) ((unsigned long)(id))\n");
    }
    h.push_str(
        "#define SPLICE_LOG(kind, a, n) \\\n    \
         printf(\"%s %lu %lu\\n\", kind, (unsigned long)(a), (unsigned long)(n))\n",
    );
    for (op, kind) in [("WRITE", "W"), ("READ", "R")] {
        let _ = writeln!(h, "#define {op}_SINGLE(a, p) ((void)(p), SPLICE_LOG(\"{kind}\", a, 1))");
        for (name, n, half) in [("DOUBLE", 2, "SINGLE"), ("QUAD", 4, "DOUBLE")] {
            if p.bus.supports_burst(n) {
                let _ = writeln!(
                    h,
                    "#define {op}_{name}(a, p) ((void)(p), SPLICE_LOG(\"{kind}\", a, {n}))"
                );
            } else {
                let _ =
                    writeln!(h, "#define {op}_{name}(a, p) ({op}_{half}(a, p), {op}_{half}(a, p))");
            }
        }
    }
    h.push_str("#define WAIT_FOR_RESULTS(id) SPLICE_LOG(\"B\", SET_ADDRESS(0), id)\n");
    if p.bus.dma {
        let _ = writeln!(h, "#define SPLICE_DMA_MAX_BYTES {}UL", p.bus.dma_max_bytes);
        h.push_str(
            "#define SPLICE_DMA(kind, a, p, n) do { unsigned long __b = (n), __c; (void)(p); \\\n    \
             for (; __b > 0; __b -= __c) { \\\n        \
             __c = __b < SPLICE_DMA_MAX_BYTES ? __b : SPLICE_DMA_MAX_BYTES; \\\n        \
             SPLICE_LOG(kind, a, __c / SPLICE_WORD_BYTES); } } while (0)\n\
             #define WRITE_DMA(a, p, n) SPLICE_DMA(\"DW\", a, p, n)\n\
             #define READ_DMA(a, p, n) SPLICE_DMA(\"DR\", a, p, n)\n",
        );
    }
    h
}

/// The harness line of one bus operation; `None` for CPU-only work.
fn op_line(m: &ModuleSpec, func_id: u32, op: &BusOp) -> Option<String> {
    let status = func_address(&m.params, 0);
    Some(match op {
        BusOp::Write { addr, .. } => format!("W {addr} 1"),
        BusOp::WriteBurst { addr, data } => format!("W {addr} {}", data.len()),
        BusOp::Read { addr } => format!("R {addr} 1"),
        BusOp::ReadBurst { addr, beats } => format!("R {addr} {beats}"),
        BusOp::DmaWrite { addr, data } => format!("DW {addr} {}", data.len()),
        BusOp::DmaRead { addr, beats } => format!("DR {addr} {beats}"),
        BusOp::Poll { addr, bit } => format!("B {addr} {bit}"),
        BusOp::WaitHandshake => format!("B {status} {func_id}"),
        BusOp::WaitIrq { bit } => format!("IRQ {bit}"),
        BusOp::Compute { .. } => return None,
    })
}

/// Seeded arguments for one call of `f`: small index values, so implicit
/// arrays cover empty, short, burst-remainder and DMA-sized counts, and
/// now and then a count past one DMA transaction.
fn seeded_args(rng: &mut Rng, f: &ValidatedFunction) -> CallArgs {
    let scalars: Vec<u64> = f
        .inputs
        .iter()
        .map(|io| match (io.used_as_index, rng.range(0, 8)) {
            (true, 0) => rng.range(60, 128),
            (true, _) => rng.range(0, 13),
            (false, _) => rng.range(0, 100),
        })
        .collect();
    let values = f
        .inputs
        .iter()
        .zip(&scalars)
        .map(|(io, &v)| match io.bound {
            IoBound::Scalar => CallValue::Scalar(v),
            IoBound::Explicit(n) => CallValue::Array((0..n).collect()),
            IoBound::Implicit { index_param, .. } => {
                CallValue::Array((0..scalars[index_param]).collect())
            }
        })
        .collect();
    CallArgs::new(values).with_instance(rng.range(0, f.instances as u64) as u32)
}

/// The C statement calling `f` with `args`, in its own block.
fn c_call(f: &ValidatedFunction, args: &CallArgs) -> String {
    let mut block = String::from("    {\n");
    let mut list = Vec::new();
    for (k, (io, value)) in f.inputs.iter().zip(&args.values).enumerate() {
        match value {
            CallValue::Scalar(v) => list.push(format!("({}){v}", io.ty.name)),
            CallValue::Array(xs) => {
                let _ = writeln!(block, "        static {} a{k}[{}];", io.ty.name, xs.len().max(1));
                list.push(format!("a{k}"));
            }
        }
    }
    if f.instances > 1 {
        list.push(args.inst_index.to_string());
    }
    let call = format!("{}({})", f.name, list.join(", "));
    match &f.output {
        Some(out) if out.is_pointer && !f.nowait => {
            let _ = writeln!(block, "        free({call});");
        }
        _ => {
            let _ = writeln!(block, "        (void){call};");
        }
    }
    block.push_str("    }\n");
    block
}

/// Compile `m`'s driver against the logging harness, make `calls`, and
/// compare the log of each call with `lower_call`'s operations.
fn assert_c_matches_lowering(dir: &Path, tag: &str, spec: &str, calls: &[(&str, CallArgs)]) {
    let m = module(spec);
    let dev = &m.params.device_name;
    let dir = dir.join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let driver_c = driver_source(&m);
    let mut main_c = format!(
        "#include <stdio.h>\n#include <stdlib.h>\n#include \"splice_lib.h\"\n\
         #include \"{dev}_driver.h\"\n\nint main(void)\n{{\n"
    );
    let mut want = Vec::new();
    for (name, args) in calls {
        let f = m.function(name).unwrap();
        let prog = lower_call(&m.params, f, args).unwrap_or_else(|e| panic!("{e}\n{spec}"));
        let lines: Vec<String> =
            prog.ops.iter().filter_map(|op| op_line(&m, prog.func_id, op)).collect();
        want.push((format!("{name} {args:?}"), lines));
        main_c.push_str("    printf(\"CALL\\n\");\n");
        main_c.push_str(&c_call(f, args));
    }
    main_c.push_str("    return 0;\n}\n");
    for (file, text) in [
        ("splice_lib.h".to_owned(), harness_header(&m)),
        (format!("{dev}_driver.h"), driver_header(&m)),
        (format!("{dev}_driver.c"), driver_c.clone()),
        ("main.c".to_owned(), main_c),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
    }
    let context = format!("spec:\n{spec}\ndriver:\n{driver_c}");
    cc(&dir, &["-std=c99", "-o", "calls", "main.c", &format!("{dev}_driver.c")], &context);
    let out = Command::new(dir.join("calls")).output().expect("the harness runs");
    assert!(out.status.success(), "{tag}: the harness failed\n{context}");
    let log = String::from_utf8(out.stdout).unwrap();
    let got: Vec<Vec<&str>> =
        log.split("CALL\n").skip(1).map(|call| call.lines().collect()).collect();
    assert_eq!(got.len(), want.len(), "{tag}: one log per call\n{log}");
    for ((call, want), got) in want.iter().zip(&got) {
        assert_eq!(
            got, want,
            "{tag}: `{call}`: the C (left) and lower_call (right) disagree\n{context}"
        );
    }
}

/// Every function of `spec`, twice, with seeded arguments.
fn assert_seeded_calls_match(dir: &Path, tag: &str, spec: &str, rng: &mut Rng) {
    let m = module(spec);
    let calls: Vec<(&str, CallArgs)> = m
        .functions
        .iter()
        .flat_map(|f| [0, 1].map(|_| (f.name.as_str(), seeded_args(rng, f))))
        .collect();
    assert_c_matches_lowering(dir, tag, spec, &calls);
}

#[test]
fn emitted_c_matches_lowering_on_the_examples() {
    let dir = tmp_dir("examples");
    let mut rng = Rng::new(0xC0DE_0001);
    for (name, spec) in example_specs() {
        assert_seeded_calls_match(&dir, &name, &spec, &mut rng);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emitted_c_matches_lowering_on_the_fig_9_2_builds() {
    let dir = tmp_dir("fig9_2");
    // Beyond S1–S4: a set past one 256-byte DMA transaction, an empty one
    // and a short one.
    let sets = [70, 0, 3].map(|n| [CallValue::Scalar(n), CallValue::Array((0..n).collect())]);
    let edges = CallArgs::new(sets.into_iter().flatten().collect());
    for (tag, spec) in fig_9_2_builds() {
        let mut calls: Vec<(&str, CallArgs)> =
            Scenario::all().iter().map(|s| ("interpolate", s.call_args())).collect();
        calls.push(("interpolate", edges.clone()));
        assert_c_matches_lowering(&dir, &tag, &spec, &calls);
    }
    // The benchmark's idle device: a `nowait` call under `%irq_support`.
    let idle = "%device_name sweep\n%bus_type plb\n%bus_width 32\n\
                %base_address 0x80000000\n%irq_support true\nnowait crunch(int x);";
    assert_c_matches_lowering(&dir, "idle", idle, &[("crunch", CallArgs::scalars(&[7]))]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emitted_c_matches_lowering_on_generated_specs() {
    let dir = tmp_dir("generated");
    for case in 0..40 {
        let mut rng = Rng::new(seed_for(0xC0DE_0002, case));
        let spec = arb_spec(&mut rng);
        assert_seeded_calls_match(&dir, &format!("case{case}"), &spec, &mut rng);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `splice_lib.h` declares every primitive its macros call, so each
/// example driver compiles with warnings as errors (C99 and later reject
/// implicit declarations), as do the Fig 9.2 builds, whose runtime burst
/// loops and DMA branches the examples do not print.
#[test]
fn drivers_compile_against_the_emitted_header() {
    let dir = tmp_dir("strict");
    for (name, spec) in example_specs().into_iter().chain(fig_9_2_builds()) {
        let m = module(&spec);
        let p = &m.params;
        let dev = &p.device_name;
        let sub = dir.join(&name);
        std::fs::create_dir_all(&sub).unwrap();
        let lib_h = macro_header_with_irq(&p.bus, p.bus_width, p.base_address, p.irq);
        std::fs::write(sub.join("splice_lib.h"), &lib_h).unwrap();
        std::fs::write(sub.join(format!("{dev}_driver.h")), driver_header(&m)).unwrap();
        std::fs::write(sub.join(format!("{dev}_driver.c")), driver_source(&m)).unwrap();
        let driver = format!("{dev}_driver.c");
        let args: Vec<&str> = STRICT.iter().copied().chain(["-c", &driver]).collect();
        cc(&sub, &args, &format!("{spec}\n{lib_h}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A use of `splice_lib_linux.h`: mapping the window, addressing a
/// function and writing to it.
const LINUX_USE_C: &str = "#include \"splice_lib_linux.h\"\n\nint main(void)\n{\n    \
                           splice_word_t v = 1;\n    unsigned a;\n    \
                           if (splice_map() != 0) return 1;\n    a = SET_ADDRESS(1);\n    \
                           WRITE_SINGLE(a, &v);\n    return 0;\n}\n";

/// `splice_lib_linux.h` compiles where it is used.
#[test]
fn linux_header_compiles_for_memory_mapped_examples() {
    let dir = tmp_dir("linux");
    for (name, spec) in example_specs() {
        let m = module(&spec);
        let p = &m.params;
        if !p.bus.memory_mapped {
            continue;
        }
        let sub = dir.join(&name);
        std::fs::create_dir_all(&sub).unwrap();
        let header = linux_macro_header(&p.bus, p.bus_width, p.base_address);
        std::fs::write(sub.join("splice_lib_linux.h"), &header).unwrap();
        std::fs::write(sub.join("use.c"), LINUX_USE_C).unwrap();
        let args: Vec<&str> = STRICT.iter().copied().chain(["-c", "use.c"]).collect();
        cc(&sub, &args, &header);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `splice_word_t` is one bus word at every Wishbone width, in both
/// headers, so each transfer macro moves `SPLICE_WORD_BYTES` bytes; a
/// negative array size stops the compile where it is not.
#[test]
fn word_type_is_one_bus_word_wide() {
    let dir = tmp_dir("word");
    let one_beat =
        "typedef char word_is_one_beat[sizeof(splice_word_t) == SPLICE_WORD_BYTES ? 1 : -1];\n";
    for width in [8, 16, 32, 64] {
        let spec = format!(
            "%device_name wb{width}\n%bus_type wishbone\n%bus_width {width}\n\
             %base_address 0x80000000\nint f(char a);\n"
        );
        let m = module(&spec);
        let p = &m.params;
        let sub = dir.join(format!("wb{width}"));
        std::fs::create_dir_all(&sub).unwrap();
        let lib_h = macro_header_with_irq(&p.bus, p.bus_width, p.base_address, p.irq);
        let linux_h = linux_macro_header(&p.bus, p.bus_width, p.base_address);
        for (file, text) in [
            ("splice_lib.h", lib_h.clone()),
            ("splice_lib_linux.h", linux_h.clone()),
            ("word.c", format!("#include \"splice_lib.h\"\n{one_beat}")),
            ("word_linux.c", format!("{LINUX_USE_C}{one_beat}")),
        ] {
            std::fs::write(sub.join(file), text).unwrap();
        }
        let args: Vec<&str> =
            STRICT.iter().copied().chain(["-c", "word.c", "word_linux.c"]).collect();
        cc(&sub, &args, &format!("{spec}\n{lib_h}\n{linux_h}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
