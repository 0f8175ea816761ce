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
//! as errors, and a use of `splice_lib_linux.h`; one compiles scalars
//! narrower than the bus word the same way, and one checks that both
//! headers' `splice_word_t` is one bus word at every Wishbone width.
//!
//! A last harness does move data: its macros copy every beat through the
//! driver's pointer under AddressSanitizer and log the bytes, so arrays
//! whose memory layout is not the bus-word layout (narrow elements, packed
//! counts that end inside a beat) are checked byte for byte, and a transfer
//! that touches memory past an array's end fails.

use splice_devices::interp::{interp_spec, Scenario};
use splice_driver::cgen::{driver_header, driver_source};
use splice_driver::lower::{func_address, lower_call, transfer_shape, TransferShape};
use splice_driver::macros::{linux_macro_header, macro_header_with_irq, word_type};
use splice_driver::program::{BusOp, CallArgs, CallValue};
use splice_spec::validate::{IoBound, ModuleSpec, ValidatedFunction, ValidatedIo};
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
        assert_compiles_strictly(&dir.join(&name), &spec);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compile `spec`'s driver in `dir` against the `splice_lib.h` Splice
/// emits, with warnings as errors.
fn assert_compiles_strictly(dir: &Path, spec: &str) {
    let m = module(spec);
    let p = &m.params;
    let dev = &p.device_name;
    std::fs::create_dir_all(dir).unwrap();
    let lib_h = macro_header_with_irq(&p.bus, p.bus_width, p.base_address, p.irq);
    let driver_c = driver_source(&m);
    std::fs::write(dir.join("splice_lib.h"), &lib_h).unwrap();
    std::fs::write(dir.join(format!("{dev}_driver.h")), driver_header(&m)).unwrap();
    std::fs::write(dir.join(format!("{dev}_driver.c")), &driver_c).unwrap();
    let driver = format!("{dev}_driver.c");
    let args: Vec<&str> = STRICT.iter().copied().chain(["-c", &driver]).collect();
    cc(dir, &args, &format!("{spec}\n{lib_h}\n{driver_c}"));
}

/// Scalars narrower than the bus word (`char` and `short`, and `int` on a
/// 64-bit bus), as inputs and as results, compile against the emitted
/// header with warnings as errors: each crosses the bus through a word
/// temporary rather than through its own address. Their calls still
/// match the lowering op for op.
#[test]
fn narrow_scalars_cross_the_bus_through_a_word() {
    let dir = tmp_dir("narrow");
    let mut rng = Rng::new(0xC0DE_0003);
    for (bus, width) in [("plb", 32), ("ahb", 64)] {
        let spec = format!(
            "%device_name narrow_{bus}\n%bus_type {bus}\n%bus_width {width}\n\
             %base_address 0x80000000\nchar fc(char a);\nshort fs(short b);\n\
             int fi(int c);\nint fn0(char*:5 p0);\n"
        );
        assert_compiles_strictly(&dir.join(format!("strict_{bus}")), &spec);
        assert_seeded_calls_match(&dir, bus, &spec, &mut rng);
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

/// The data harness `splice_lib.h`: every transaction macro copies `beats ×
/// SPLICE_WORD_BYTES` bytes through its pointer and logs them in memory
/// order, as hex. A write reads them from the driver's memory; a read
/// stores the next bytes of a counting pattern (`splice_next`) there.
fn data_harness_header(m: &ModuleSpec) -> String {
    let p = &m.params;
    let mut h = String::from("#include <stdio.h>\n");
    let _ = writeln!(h, "typedef {} splice_word_t;", word_type(p.bus_width));
    let _ = writeln!(h, "#define SPLICE_WORD_BYTES {}", p.bus_width / 8);
    h.push_str(
        "#define SET_ADDRESS(id) ((unsigned long)(id))\n\
         #define WAIT_FOR_RESULTS(id) ((void)(id))\n\
         extern unsigned char splice_next;\n\
         static void splice_move(char kind, void *p, unsigned long beats)\n\
         {\n    \
         unsigned char *b = (unsigned char *)p;\n    \
         unsigned long k;\n    \
         printf(\"%c\", kind);\n    \
         for (k = 0; k < beats * SPLICE_WORD_BYTES; ++k) {\n        \
         if (kind == 'R') b[k] = splice_next++;\n        \
         printf(\" %02x\", b[k]);\n    \
         }\n    \
         printf(\"\\n\");\n\
         }\n",
    );
    for (op, kind) in [("WRITE", 'W'), ("READ", 'R')] {
        for (name, beats) in [("SINGLE", 1), ("DOUBLE", 2), ("QUAD", 4)] {
            let _ = writeln!(
                h,
                "#define {op}_{name}(a, p) ((void)(a), splice_move('{kind}', p, {beats}))"
            );
        }
        let _ = writeln!(
            h,
            "#define {op}_DMA(a, p, n) ((void)(a), splice_move('{kind}', p, (n) / SPLICE_WORD_BYTES))"
        );
    }
    h
}

/// A C type's size on the host, for the types the data test declares.
fn c_size(ty: &str) -> usize {
    match ty {
        "char" => 1,
        "short" => 2,
        "int" | "float" => 4,
        other => panic!("no host size for `{other}`"),
    }
}

/// `v` as `bytes` bytes in the host's order (the C side's `memcpy` view).
fn ne_bytes(v: u64, bytes: usize) -> Vec<u8> {
    let all = v.to_ne_bytes();
    if cfg!(target_endian = "little") {
        all[..bytes].to_vec()
    } else {
        all[8 - bytes..].to_vec()
    }
}

/// The value of the host-order word `bytes`.
fn ne_value(bytes: &[u8]) -> u64 {
    let mut all = [0u8; 8];
    if cfg!(target_endian = "little") {
        all[..bytes.len()].copy_from_slice(bytes);
    } else {
        all[8 - bytes.len()..].copy_from_slice(bytes);
    }
    u64::from_ne_bytes(all)
}

/// The bus words an input occupies, as bytes in memory order: a scalar or
/// a narrow element widened to one word each, a packed array's bytes in
/// order padded with zeros to whole beats, a bus-wide array as it is.
fn word_image(m: &ModuleSpec, io: &ValidatedIo, elems: &[u64]) -> Vec<u8> {
    let word = (m.params.bus_width / 8) as usize;
    let size = c_size(&io.ty.name);
    match transfer_shape(io, m.params.bus_width) {
        TransferShape::Packed { per_beat } if io.is_pointer => {
            let mut bytes: Vec<u8> = elems.iter().flat_map(|&v| ne_bytes(v, size)).collect();
            let beats = elems.len().div_ceil(per_beat as usize);
            bytes.resize(beats * word, 0);
            bytes
        }
        TransferShape::Split { .. } => panic!("the data test declares no split transfer"),
        _ => elems.iter().flat_map(|&v| ne_bytes(v, word.max(size))).collect(),
    }
}

/// What the driver returns for an output whose words were `read`: each
/// narrow element cut from its own word, a packed array's first bytes.
fn result_image(m: &ModuleSpec, io: &ValidatedIo, elems: usize, read: &[u8]) -> Vec<u8> {
    let word = (m.params.bus_width / 8) as usize;
    let size = c_size(&io.ty.name);
    match transfer_shape(io, m.params.bus_width) {
        TransferShape::Packed { .. } => read[..elems * size].to_vec(),
        _ => read.chunks(word).take(elems).flat_map(|w| ne_bytes(ne_value(w), size)).collect(),
    }
}

/// Call every function of `spec` once per entry of `counts` (the value of
/// any index parameter) under the data harness, built with
/// AddressSanitizer, and compare the bytes each call moves with the word
/// images it should move, and each array result with the words it read.
fn assert_data_moves_exactly(dir: &Path, tag: &str, spec: &str, counts: &[u64]) {
    let m = module(spec);
    let dev = &m.params.device_name;
    let dir = dir.join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let mut main_c = format!(
        "#include <stdio.h>\n#include <stdlib.h>\n#include \"splice_lib.h\"\n\
         #include \"{dev}_driver.h\"\n\nunsigned char splice_next;\n\nint main(void)\n{{\n"
    );
    // Per call: its name, the bytes it writes, and its array result's
    // length.
    let mut want: Vec<(String, Vec<u8>, Option<usize>)> = Vec::new();
    for f in &m.functions {
        for &count in counts {
            let n_of = |io: &ValidatedIo| match io.bound {
                IoBound::Scalar => 1,
                IoBound::Explicit(n) => n,
                IoBound::Implicit { .. } => count,
            };
            let mut call = format!("{} n={count}", f.name);
            let _ = writeln!(main_c, "    {{\n        printf(\"CALL {call}\\n\");");
            main_c.push_str("        splice_next = 1;\n");
            let mut writes = Vec::new();
            let mut args = Vec::new();
            for (k, io) in f.inputs.iter().enumerate() {
                let ty = &io.ty.name;
                let values: Vec<u64> = if io.is_pointer {
                    let mask = (1u64 << (8 * c_size(ty) - 1)) - 1;
                    (0..n_of(io)).map(|j| (j * 37 + 11) & mask).collect()
                } else {
                    vec![if io.used_as_index { count } else { 5 }]
                };
                // A float gets a fraction, so that its bits and its value
                // converted to an integer differ; it crosses as its bits.
                let (lits, elems): (Vec<String>, Vec<u64>) = values
                    .iter()
                    .map(|&v| match io.ty.float {
                        true => {
                            let x = v as f32 + 0.5;
                            (format!("{x:?}"), u64::from(x.to_bits()))
                        }
                        false => (v.to_string(), v),
                    })
                    .unzip();
                if io.is_pointer {
                    let _ = writeln!(
                        main_c,
                        "        {ty} *a{k} = ({ty} *)malloc(sizeof({ty}) * {});",
                        elems.len()
                    );
                    for (j, lit) in lits.iter().enumerate() {
                        let _ = writeln!(main_c, "        a{k}[{j}] = ({ty}){lit};");
                    }
                } else {
                    let _ = writeln!(main_c, "        {ty} a{k} = ({ty}){};", lits[0]);
                }
                args.push(format!("a{k}"));
                writes.extend(word_image(&m, io, &elems));
            }
            let invoke = format!("{}({})", f.name, args.join(", "));
            let result = match &f.output {
                Some(out) if out.is_pointer => {
                    let n = n_of(out) as usize;
                    let bytes = n * c_size(&out.ty.name);
                    let _ = writeln!(
                        main_c,
                        "        {ty} *r = {invoke};\n        unsigned long k;\n        \
                         printf(\"RES\");\n        \
                         for (k = 0; k < {bytes}; ++k) printf(\" %02x\", ((unsigned char *)r)[k]);\n        \
                         printf(\"\\n\");\n        free(r);",
                        ty = out.ty.name
                    );
                    call.push_str(" (array result)");
                    Some(n)
                }
                _ => {
                    let _ = writeln!(main_c, "        (void){invoke};");
                    None
                }
            };
            for (k, io) in f.inputs.iter().enumerate() {
                if io.is_pointer {
                    let _ = writeln!(main_c, "        free(a{k});");
                }
            }
            main_c.push_str("    }\n");
            want.push((call, writes, result));
        }
    }
    main_c.push_str("    return 0;\n}\n");
    let driver_c = driver_source(&m);
    for (file, text) in [
        ("splice_lib.h".to_owned(), data_harness_header(&m)),
        (format!("{dev}_driver.h"), driver_header(&m)),
        (format!("{dev}_driver.c"), driver_c.clone()),
        ("main.c".to_owned(), main_c),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
    }
    let context = format!("spec:\n{spec}\ndriver:\n{driver_c}");
    let driver = format!("{dev}_driver.c");
    cc(&dir, &["-std=c99", "-g", "-fsanitize=address", "-o", "moves", "main.c", &driver], &context);
    let out = Command::new(dir.join("moves"))
        .env("ASAN_OPTIONS", "detect_leaks=0")
        .output()
        .expect("the harness runs");
    assert!(
        out.status.success(),
        "{tag}: the harness failed\n{}\n{context}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8(out.stdout).unwrap();
    let calls: Vec<&str> = log.split("CALL ").skip(1).collect();
    assert_eq!(calls.len(), want.len(), "{tag}: one log per call\n{log}");
    let hex = |line: &str| -> Vec<u8> {
        line.split_whitespace().skip(1).map(|b| u8::from_str_radix(b, 16).unwrap()).collect()
    };
    for (logged, (call, writes, result)) in calls.iter().zip(&want) {
        let lines: Vec<&str> = logged.lines().skip(1).collect();
        let wrote: Vec<u8> =
            lines.iter().filter(|l| l.starts_with('W')).flat_map(|l| hex(l)).collect();
        assert_eq!(&wrote, writes, "{tag}: `{call}` wrote other words\n{context}");
        if let Some(n) = *result {
            let f = m.function(call.split(' ').next().unwrap()).unwrap();
            let out = f.output.as_ref().unwrap();
            let read: Vec<u8> =
                lines.iter().filter(|l| l.starts_with('R')).flat_map(|l| hex(l)).collect();
            let got = lines.iter().find(|l| l.starts_with("RES")).map(|l| hex(l));
            let expected = result_image(&m, out, n, &read);
            assert_eq!(got, Some(expected), "{tag}: `{call}` returned other values\n{context}");
        }
    }
}

/// Arrays whose memory layout is not the bus-word layout cross through a
/// zero-filled staging buffer of words, for single, burst, runtime-loop and
/// DMA transfers alike: narrow elements travel one per word, and a packed
/// count that ends inside a beat is padded with zeros, so no transfer reads
/// or writes past an array's end. Arrays already in bus-word layout (bus-
/// wide elements, whole packed beats) cross as they are. A float narrower
/// than the word, scalar or element, crosses as its bits. Every driver also
/// compiles against the emitted header with warnings as errors.
#[test]
fn arrays_cross_the_bus_in_bus_word_layout() {
    let dir = tmp_dir("data");
    let specs = [
        (
            "ahb64",
            "%device_name stage_ahb\n%bus_type ahb\n%bus_width 64\n%base_address 0x80000000\n\
             %burst_support true\nint fn0(char*:5 p0);\nint fp(char*:5+ p1);\n\
             int fw(char*:16+ p2);\nint fr(int n, short*:n+ xs);\nint fq(int m, char*:m ys);\n\
             char*:3 g();\nshort*:3+ h();\nint*:n k(int n);\nfloat fl(float a);\n\
             int fm(float*:3 xs);\nfloat*:3 fz();\n",
        ),
        (
            "plb32",
            "%device_name stage_plb\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
             int fn0(char*:5 p0);\nint fi(int*:3 p1);\nint fr(int n, char*:n+ xs);\n\
             short*:5 g();\nchar*:n+ h(int n);\n",
        ),
        (
            "dma32",
            "%device_name stage_dma\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
             %dma_support true\n%burst_support true\nint fd(char*:8^ a);\n\
             int fe(int n, char*:n^ b);\nint ff(char*:21^+ c);\nint fg(int n, short*:n^+ d);\n\
             char*:7^ g();\nshort*:n^+ h(int n);\n",
        ),
    ];
    for (tag, spec) in specs {
        assert_compiles_strictly(&dir.join(format!("strict_{tag}")), spec);
        assert_data_moves_exactly(&dir, tag, spec, &[0, 1, 3, 6, 13]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
