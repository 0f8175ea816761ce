//! ANSI-C driver source emission (`<dev>_driver.c` / `<dev>_driver.h`).
//!
//! The generated bodies follow Fig 6.1/6.2: compute the function address
//! from the per-function identifier macro, then print the function's
//! transfer plan (`lower::plan`) step by step — every input in declaration order
//! through the transaction macros, `WAIT_FOR_RESULTS`, the output read-back
//! — and return the result. Multi-instance functions grow the `inst_index`
//! parameter of Fig 6.2.

use crate::lower::{
    burst_groups, macro_widths, plan, Beats, Step, Transfer, TransferShape, DMA_MIN_BEATS,
};
use crate::macros::word_type;
use splice_spec::validate::{IoBound, ModuleParams, ModuleSpec, ValidatedFunction, ValidatedIo};
use std::fmt::Write as _;

/// Generate `<dev>_driver.h`: typedefs plus one prototype per function.
pub fn driver_header(module: &ModuleSpec) -> String {
    let dev = &module.params.device_name;
    let guard = format!("{}_DRIVER_H", dev.to_ascii_uppercase());
    let mut o = String::new();
    let _ = writeln!(o, "/* {dev}_driver.h — generated by Splice */");
    let _ = writeln!(o, "#ifndef {guard}");
    let _ = writeln!(o, "#define {guard}\n");
    // C99 spells `bool` through <stdbool.h>.
    let bool_io = module.functions.iter().any(|f| {
        let ret = f.output.iter().filter(|_| !f.nowait);
        f.inputs.iter().chain(ret).any(|io| io.ty.name == "bool")
    });
    if bool_io || module.user_types.iter().any(|(_, definition, _)| definition == "bool") {
        let _ = writeln!(o, "#include <stdbool.h>\n");
    }
    for (name, definition, _bits) in &module.user_types {
        let _ = writeln!(o, "typedef {definition} {name};");
    }
    if !module.user_types.is_empty() {
        o.push('\n');
    }
    for f in &module.functions {
        let _ = writeln!(o, "{};", prototype(f));
    }
    o.push('\n');
    let _ = writeln!(o, "#endif /* {guard} */");
    o
}

/// Generate `<dev>_driver.c`: the driver bodies.
pub fn driver_source(module: &ModuleSpec) -> String {
    let dev = &module.params.device_name;
    let mut o = String::new();
    let _ = writeln!(o, "/* {dev}_driver.c — generated by Splice */");
    let _ = writeln!(o, "#include <stdlib.h>");
    let ios = module.functions.iter().flat_map(|f| f.inputs.iter().chain(&f.output));
    if ios.clone().any(|io| narrow_float(&module.params, io)) {
        let _ = writeln!(o, "#include <string.h>");
    }
    let _ = writeln!(o, "#include \"splice_lib.h\"");
    let _ = writeln!(o, "#include \"{dev}_driver.h\"\n");
    for f in &module.functions {
        emit_function(&mut o, &module.params, f);
        o.push('\n');
    }
    o
}

/// The identifier macro name for one function (`SAMPLE_FUNCTION_ID`).
pub fn id_macro(f: &ValidatedFunction) -> String {
    format!("{}_ID", f.name.to_ascii_uppercase())
}

/// The C spelling of an I/O's type: `single`, the Fig 3.1 alias, is C's
/// `float`.
fn c_type(io: &ValidatedIo) -> &str {
    match io.ty.name.as_str() {
        "single" => "float",
        name => name,
    }
}

/// The C prototype Splice preserves source compatibility with (§3.1.1).
pub fn prototype(f: &ValidatedFunction) -> String {
    let ret = match (&f.output, f.nowait) {
        (_, true) => "void".to_owned(),
        (None, _) => "void".to_owned(),
        (Some(out), _) => {
            if out.is_pointer {
                format!("{} *", c_type(out))
            } else {
                c_type(out).to_owned()
            }
        }
    };
    let mut params: Vec<String> = f
        .inputs
        .iter()
        .map(|p| {
            if p.is_pointer {
                format!("{} *{}", c_type(p), p.name)
            } else {
                format!("{} {}", c_type(p), p.name)
            }
        })
        .collect();
    if f.instances > 1 {
        params.push("int inst_index".into());
    }
    let list = if params.is_empty() { "void".to_owned() } else { params.join(", ") };
    format!("{ret} {}({list})", f.name)
}

fn emit_function(o: &mut String, params: &ModuleParams, f: &ValidatedFunction) {
    let id = id_macro(f);
    let _ = writeln!(o, "/* ID Used to Target {} */", f.name);
    let _ = writeln!(o, "#define {id} {}\n", f.first_func_id);
    let _ = writeln!(o, "/* Driver Used to Activate {} in HW */", f.name);
    let _ = writeln!(o, "{}", prototype(f));
    o.push_str("{\n");

    // Locals.
    o.push_str("    unsigned func_addr;\n");
    match (&f.output, f.nowait) {
        (_, true) => {}
        (Some(out), false) if out.is_pointer => {
            let n = bound_expr(f, out);
            let _ = writeln!(
                o,
                "    {ty} *result = ({ty} *)malloc(sizeof({ty}) * ({n}));",
                ty = c_type(out)
            );
        }
        (Some(out), false) => {
            let _ = writeln!(o, "    {} result;", c_type(out));
        }
        (None, false) => o.push_str("    splice_word_t splice_sync;\n"),
    }
    o.push('\n');

    // Address (Fig 6.2 adds the instance offset).
    let target = if f.instances > 1 { format!("{id} + inst_index") } else { id };
    let _ = writeln!(o, "    func_addr = SET_ADDRESS({target});\n");

    for step in plan(params, f) {
        match step {
            Step::Input(_, t) => emit_transfer(o, params, f, &t, true),
            Step::Activate => {
                o.push_str("    /* Parameterless activation on a strictly synchronous bus */\n");
                o.push_str("    { splice_word_t __go = 0; WRITE_SINGLE(func_addr, &__go); }\n\n");
            }
            Step::Barrier => {
                o.push_str("    /* Wait for Calculations to Complete */\n");
                let _ = writeln!(o, "    WAIT_FOR_RESULTS({target});\n");
            }
            Step::Output(t) => {
                o.push_str("    /* Grab Result from Hardware */\n");
                emit_transfer(o, params, f, &t, false);
                o.push_str("\n    return result;\n");
            }
            Step::SyncRead => {
                o.push_str("    /* Synchronous wait: read the pseudo output state */\n");
                o.push_str("    READ_SINGLE(func_addr, &splice_sync);\n");
                o.push_str("    (void)splice_sync;\n");
            }
        }
    }
    o.push_str("}\n");
}

/// The C expression for an I/O's element count.
fn bound_expr(f: &ValidatedFunction, io: &ValidatedIo) -> String {
    match io.bound {
        IoBound::Scalar => "1".into(),
        IoBound::Explicit(n) => n.to_string(),
        IoBound::Implicit { index_param, .. } => f.inputs[index_param].name.clone(),
    }
}

/// The macro name suffix for a `width`-beat transfer.
fn macro_name(width: u32) -> &'static str {
    match width {
        4 => "QUAD",
        2 => "DOUBLE",
        _ => "SINGLE",
    }
}

/// Whether `io` is a float narrower than the bus word. Such a value
/// crosses the bus as its bits: `memcpy` moves them through an unsigned
/// integer of the float's width, which converts to and from the word.
fn narrow_float(params: &ModuleParams, io: &ValidatedIo) -> bool {
    io.ty.float && io.elem_bits() < params.bus_width
}

/// Whether an array's memory layout differs from its bus-word layout, so
/// that it crosses the bus through a zero-filled staging buffer of words:
/// elements narrower than the word travel one per word, and a packed count
/// that is not a whole number of beats would leave the last beat partly
/// past the array's end.
fn staged(params: &ModuleParams, t: &Transfer) -> bool {
    match (t.io.bound, t.shape) {
        (IoBound::Scalar, _) | (_, TransferShape::Split { .. }) => false,
        (_, TransferShape::Direct) => t.io.elem_bits() < params.bus_width,
        (IoBound::Explicit(n), TransferShape::Packed { per_beat }) => n % u64::from(per_beat) != 0,
        (_, TransferShape::Packed { per_beat }) => per_beat > 1,
    }
}

/// Print one transfer of the plan: straight-line macros for a static beat
/// count, loops for a runtime one, and the DMA macro where DMA carries it.
/// An input gets a comment line and a trailing blank line. A [`staged`]
/// array is copied into the buffer `__w` before it is written, or out of
/// it after it is read: element k in word k, or its bytes in order.
fn emit_transfer(
    o: &mut String,
    params: &ModuleParams,
    f: &ValidatedFunction,
    t: &Transfer,
    write: bool,
) {
    let (op, name) = if write { ("WRITE", t.io.name.as_str()) } else { ("READ", "result") };
    let scalar = matches!(t.io.bound, IoBound::Scalar);
    let staged = staged(params, t);
    let ty = c_type(t.io);
    // The unsigned integer a narrow float's bits cross through.
    let bits = narrow_float(params, t.io).then(|| word_type(t.io.elem_bits()));
    // Where the beats live: a scalar's address, an array's pointer, or the
    // staging buffer.
    let base = match (staged, scalar) {
        (true, _) => "__w".to_owned(),
        (false, true) => format!("&{name}"),
        (false, false) => name.to_owned(),
    };
    let note = match t.shape {
        TransferShape::Direct => String::new(),
        TransferShape::Packed { per_beat } => format!(" ({per_beat} values packed per beat)"),
        TransferShape::Split { beats_per_elem } => {
            format!(" (each value split across {beats_per_elem} beats)")
        }
    };
    let dma =
        |n: &str| format!("{op}_DMA(func_addr, (splice_word_t *){base}, {n} * SPLICE_WORD_BYTES);");
    // The macro lines, apart from the comment.
    let mut body = String::new();
    let beats = match t.beats {
        Beats::Static(beats) if t.by_dma(beats) => {
            if write {
                let _ = writeln!(o, "    /* Transfer {name} via DMA{note} */");
            }
            let _ = writeln!(body, "    {}", dma(&beats.to_string()));
            beats.to_string()
        }
        Beats::Static(beats) => {
            if write {
                let pio = if t.io.dma { " (programmed I/O: too short for DMA)" } else { "" };
                let _ = writeln!(o, "    /* Transfer {beats} beat(s) of {name}{note}{pio} */");
            }
            if scalar && beats == 1 && t.io.elem_bits() < params.bus_width {
                // A macro moves a whole bus word, so a narrower scalar
                // crosses the bus through a word temporary, never through
                // its own address.
                let _ = match (write, bits) {
                    (true, None) => writeln!(
                        body,
                        "    {{ splice_word_t __w = (splice_word_t){name}; \
                         WRITE_SINGLE(func_addr, &__w); }}"
                    ),
                    (false, None) => writeln!(
                        body,
                        "    {{ splice_word_t __w; READ_SINGLE(func_addr, &__w); \
                         result = ({ty})__w; }}"
                    ),
                    (true, Some(u)) => writeln!(
                        body,
                        "    {{ splice_word_t __w; {u} __b; memcpy(&__b, &{name}, sizeof __b); \
                         __w = __b; WRITE_SINGLE(func_addr, &__w); }}"
                    ),
                    (false, Some(u)) => writeln!(
                        body,
                        "    {{ splice_word_t __w; {u} __b; READ_SINGLE(func_addr, &__w); \
                         __b = ({u})__w; memcpy(&result, &__b, sizeof __b); }}"
                    ),
                };
            } else if scalar && beats == 1 {
                let _ = writeln!(body, "    {op}_SINGLE(func_addr, &{name});");
            } else {
                let mut offset = 0;
                for w in burst_groups(params, beats) {
                    let kind = macro_name(w);
                    let _ = writeln!(
                        body,
                        "    {op}_{kind}(func_addr, ((splice_word_t *){base}) + {offset});"
                    );
                    offset += w;
                }
            }
            beats.to_string()
        }
        Beats::Runtime(index_param) => {
            let var = &f.inputs[index_param].name;
            let n = match t.shape {
                TransferShape::Direct => var.clone(),
                TransferShape::Packed { per_beat } => {
                    format!("(({var}) + {per_beat} - 1) / {per_beat}")
                }
                TransferShape::Split { beats_per_elem } => format!("({var}) * {beats_per_elem}"),
            };
            if write {
                let by = if t.io.dma {
                    format!(" (by DMA from {DMA_MIN_BEATS} beats)")
                } else {
                    String::new()
                };
                let _ = writeln!(o, "    /* Transfer ({n}) beat(s) of {name}{note}{by} */");
            }
            if t.io.dma {
                let _ = writeln!(body, "    if ((unsigned)({n}) >= {DMA_MIN_BEATS}) {}", dma(&n));
                body.push_str("    else ");
            } else {
                body.push_str("    ");
            }
            beat_loops(&mut body, params, op, &base, &n);
            n
        }
    };
    if staged {
        let elems = bound_expr(f, t.io);
        // Element k in word k, or the bytes in order, never past either end.
        let (test, step) = match t.shape {
            TransferShape::Direct => (
                format!("__k < (unsigned long)({elems})"),
                match (write, bits) {
                    (true, None) => format!("__w[__k] = (splice_word_t){name}[__k];"),
                    (false, None) => format!("result[__k] = ({ty})__w[__k];"),
                    (true, Some(u)) => format!(
                        "{{ {u} __b; memcpy(&__b, &{name}[__k], sizeof __b); __w[__k] = __b; }}"
                    ),
                    (false, Some(u)) => format!(
                        "{{ {u} __b = ({u})__w[__k]; memcpy(&result[__k], &__b, sizeof __b); }}"
                    ),
                },
            ),
            _ => {
                let (to, from) = if write { ("__w", name) } else { ("result", "__w") };
                (
                    format!(
                        "__k < (unsigned long)({elems}) * sizeof({ty}) \
                         && __k < (unsigned long)({beats}) * SPLICE_WORD_BYTES"
                    ),
                    format!("((unsigned char *){to})[__k] = ((const unsigned char *){from})[__k];"),
                )
            }
        };
        let copy = format!("        for (__k = 0; {test}; ++__k) {step}\n");
        o.push_str("    {\n");
        let _ = writeln!(
            o,
            "        splice_word_t *__w = \
             (splice_word_t *)calloc({beats}, sizeof(splice_word_t));"
        );
        o.push_str("        unsigned long __k;\n");
        if write {
            o.push_str(&copy);
        }
        for line in body.lines() {
            let _ = writeln!(o, "    {line}");
        }
        if !write {
            o.push_str(&copy);
        }
        o.push_str("        free(__w);\n    }\n");
    } else {
        o.push_str(&body);
    }
    if write {
        o.push('\n');
    }
}

/// The programmed-I/O loops over a runtime count of `n` beats at `base`:
/// one loop per macro width, widest first, which is [`burst_groups`] at
/// run time. Without bursts this is a single `SINGLE` loop.
fn beat_loops(o: &mut String, params: &ModuleParams, op: &str, base: &str, n: &str) {
    o.push_str("{ unsigned __i;");
    for (k, w) in macro_widths(params).enumerate() {
        let (sep, init) = if k == 0 { (" ", "__i = 0") } else { ("\n      ", "") };
        let (test, next) = match w {
            1 => ("__i < ".to_owned(), "++__i".to_owned()),
            _ => (format!("__i + {w} <= "), format!("__i += {w}")),
        };
        let _ = write!(
            o,
            "{sep}for ({init}; {test}(unsigned)({n}); {next}) \
             {op}_{}(func_addr, ((splice_word_t *){base}) + __i);",
            macro_name(w)
        );
    }
    o.push_str(" }\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_spec::parse_and_validate;

    fn module(decls: &str, extra: &str) -> ModuleSpec {
        let src = format!(
            "%device_name demo\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n{extra}\n{decls}"
        );
        parse_and_validate(&src).unwrap().module
    }

    #[test]
    fn header_has_typedefs_and_prototypes() {
        let m = module(
            "llong get_threshold();\nvoid set_threshold(llong t);",
            "%user_type llong, unsigned long long, 64",
        );
        let h = driver_header(&m);
        assert!(h.contains("typedef unsigned long long llong;"), "{h}");
        assert!(h.contains("llong get_threshold(void);"), "{h}");
        assert!(h.contains("void set_threshold(llong t);"), "{h}");
        assert!(h.contains("#ifndef DEMO_DRIVER_H"), "{h}");
    }

    #[test]
    fn fig_6_1_shape() {
        // float sample_function(int* x:2, int y)
        let m = module("float sample_function(int*:2 x, int y);", "");
        let c = driver_source(&m);
        assert!(c.contains("#define SAMPLE_FUNCTION_ID 1"), "{c}");
        assert!(c.contains("float sample_function(int *x, int y)"), "{c}");
        assert!(c.contains("func_addr = SET_ADDRESS(SAMPLE_FUNCTION_ID);"), "{c}");
        assert!(c.contains("WAIT_FOR_RESULTS(SAMPLE_FUNCTION_ID);"), "{c}");
        assert!(c.contains("READ_SINGLE(func_addr, &result);"), "{c}");
        assert!(c.contains("return result;"), "{c}");
    }

    #[test]
    fn fig_6_2_multi_instance_shape() {
        let m = module("float sample_function(int*:2 x, int y):3;", "");
        let c = driver_source(&m);
        assert!(c.contains("float sample_function(int *x, int y, int inst_index)"), "{c}");
        assert!(c.contains("SET_ADDRESS(SAMPLE_FUNCTION_ID + inst_index);"), "{c}");
        assert!(c.contains("WAIT_FOR_RESULTS(SAMPLE_FUNCTION_ID + inst_index);"), "{c}");
    }

    #[test]
    fn burst_functions_use_quad_macros() {
        let m = module("void f(int*:8 x);", "%burst_support true");
        let c = driver_source(&m);
        assert_eq!(c.matches("WRITE_QUAD(").count(), 2, "{c}");
        assert_eq!(c.matches("WRITE_SINGLE(").count(), 0, "{c}");
    }

    #[test]
    fn dma_functions_use_dma_macros() {
        let m = module("void f(int*:16^ x);", "%dma_support true");
        let c = driver_source(&m);
        assert!(
            c.contains("WRITE_DMA(func_addr, (splice_word_t *)x, 16 * SPLICE_WORD_BYTES);"),
            "{c}"
        );
    }

    #[test]
    fn implicit_arrays_loop() {
        let m = module("void f(int x, int*:x y);", "");
        let c = driver_source(&m);
        assert!(c.contains("for (__i = 0; __i < (unsigned)(x); ++__i)"), "{c}");
    }

    #[test]
    fn pointer_outputs_malloc_and_note() {
        let m = module("int*:4 quad();", "");
        let c = driver_source(&m);
        assert!(c.contains("malloc(sizeof(int) * (4))"), "{c}");
        assert!(c.contains("return result;"), "{c}");
    }

    #[test]
    fn nowait_returns_immediately() {
        let m = module("nowait fire(int x);", "");
        let c = driver_source(&m);
        assert!(!c.contains("WAIT_FOR_RESULTS"), "{c}");
        assert!(!c.contains("READ_SINGLE"), "{c}");
        assert!(c.contains("void fire(int x)"), "{c}");
    }

    #[test]
    fn split_scalar_bursts_only_under_burst_support() {
        let decl = "void set_threshold(llong t);\nllong get_threshold();";
        let ty = "%user_type llong, unsigned long long, 64";
        let c = driver_source(&module(decl, ty));
        assert!(c.contains("WRITE_SINGLE(func_addr, ((splice_word_t *)&t) + 1);"), "{c}");
        assert!(c.contains("READ_SINGLE(func_addr, ((splice_word_t *)&result) + 1);"), "{c}");
        assert!(c.contains("each value split across 2 beats"), "{c}");
        let c = driver_source(&module(decl, &format!("{ty}\n%burst_support true")));
        assert!(c.contains("WRITE_DOUBLE(func_addr, ((splice_word_t *)&t) + 0);"), "{c}");
        assert!(c.contains("READ_DOUBLE(func_addr, ((splice_word_t *)&result) + 0);"), "{c}");
    }

    #[test]
    fn runtime_counts_burst_in_greedy_loops() {
        let m = module("int f(int n, int*:n xs);", "%burst_support true");
        let c = driver_source(&m);
        for needle in [
            "{ unsigned __i; for (__i = 0; __i + 4 <= (unsigned)(n); __i += 4) WRITE_QUAD(",
            "for (; __i + 2 <= (unsigned)(n); __i += 2) WRITE_DOUBLE(",
            "for (; __i < (unsigned)(n); ++__i) WRITE_SINGLE(func_addr, ((splice_word_t *)xs) + __i); }",
        ] {
            assert!(c.contains(needle), "missing `{needle}`:\n{c}");
        }
    }

    #[test]
    fn dma_needs_the_minimum_beat_count() {
        let m = module("void f(int*:4^ x, int n, int*:n^ y);", "%dma_support true");
        let c = driver_source(&m);
        assert!(!c.contains("WRITE_DMA(func_addr, (splice_word_t *)x"), "{c}");
        assert_eq!(c.matches("WRITE_SINGLE(func_addr, ((splice_word_t *)x)").count(), 4, "{c}");
        assert!(c.contains("    if ((unsigned)(n) >= 5) WRITE_DMA(func_addr, (splice_word_t *)y, n * SPLICE_WORD_BYTES);\n    else { unsigned __i; for (__i = 0;"), "{c}");
    }

    #[test]
    fn void_function_reads_sync_word() {
        let m = module("void ping();", "");
        let c = driver_source(&m);
        assert!(c.contains("READ_SINGLE(func_addr, &splice_sync);"), "{c}");
    }
}
