//! Lowering: a validated function + bound arguments → a [`DriverProgram`].
//!
//! This mirrors, operation for operation, the C driver bodies of Figs
//! 6.1/6.2: compute the function address, transfer each input in
//! declaration order (packing, splitting, bursting or DMA as the spec
//! demands), `WAIT_FOR_RESULTS`, then read the output back.

use crate::program::{concrete_func_id, BusOp, CallArgs, CallValue, DriverProgram, ResultLayout};
use splice_spec::validate::{IoBound, ModuleParams, ValidatedFunction, ValidatedIo};
use std::fmt;

/// CPU cycles of fixed call overhead (SET_ADDRESS, stack frame, result
/// storage — the prologue every generated driver shares).
pub const CALL_PROLOGUE_CPU_CYCLES: u32 = 6;

/// Transfers of this many beats or fewer fall back from DMA to programmed
/// I/O: "the DMA circuitry requires a minimum of four bus transactions to
/// setup and take down, thus negating any benefits for lesser
/// transmissions" (§9.2.1), so the generated driver only engages the
/// engine where it can pay off.
pub const DMA_MIN_BEATS: usize = 5;

/// Errors binding arguments to a declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// Wrong number of arguments.
    ArgCount { func: String, expected: usize, got: usize },
    /// A scalar parameter received an array (or vice versa).
    ArgShape { func: String, param: String },
    /// An array's length does not match its explicit bound.
    BoundMismatch { func: String, param: String, expected: u64, got: u64 },
    /// An implicit bound's index value disagrees with the array length.
    ImplicitMismatch { func: String, param: String, index_value: u64, got: u64 },
    /// Instance index out of range.
    BadInstance { func: String, instances: u32, got: u32 },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::ArgCount { func, expected, got } => {
                write!(f, "`{func}` takes {expected} arguments, got {got}")
            }
            LowerError::ArgShape { func, param } => {
                write!(f, "`{func}`: argument `{param}` has the wrong shape (scalar vs array)")
            }
            LowerError::BoundMismatch { func, param, expected, got } => write!(
                f,
                "`{func}`: array `{param}` must have exactly {expected} elements, got {got}"
            ),
            LowerError::ImplicitMismatch { func, param, index_value, got } => write!(
                f,
                "`{func}`: `{param}` has {got} elements but its index parameter is {index_value}"
            ),
            LowerError::BadInstance { func, instances, got } => {
                write!(f, "`{func}` has {instances} instances; index {got} is out of range")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// The transfer shape of one I/O under the module's bus configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferShape {
    /// One element per beat.
    Direct,
    /// Several elements per beat.
    Packed { per_beat: u32 },
    /// Several beats per element (MSW first).
    Split { beats_per_elem: u32 },
}

impl TransferShape {
    /// Beats needed to move `elems` elements in this shape.
    pub fn beats(self, elems: u64) -> u64 {
        match self {
            TransferShape::Direct => elems,
            TransferShape::Packed { per_beat } => elems.div_ceil(per_beat as u64),
            TransferShape::Split { beats_per_elem } => elems * beats_per_elem as u64,
        }
    }
}

/// Determine how `io` moves over a `bus_width`-bit bus.
pub fn transfer_shape(io: &ValidatedIo, bus_width: u32) -> TransferShape {
    let bits = io.ty.bits.max(1);
    if io.packed && bits < bus_width {
        TransferShape::Packed { per_beat: bus_width / bits }
    } else if bits > bus_width {
        TransferShape::Split { beats_per_elem: bits.div_ceil(bus_width) }
    } else {
        TransferShape::Direct
    }
}

/// Beats needed to move `elems` elements of `io`.
pub fn beats_for(io: &ValidatedIo, bus_width: u32, elems: u64) -> u64 {
    transfer_shape(io, bus_width).beats(elems)
}

/// Encode `elems` as bus beats per `io`'s transfer shape.
pub fn encode_beats(io: &ValidatedIo, bus_width: u32, elems: &[u64]) -> Vec<u64> {
    let word_mask = if bus_width >= 64 { u64::MAX } else { (1u64 << bus_width) - 1 };
    match transfer_shape(io, bus_width) {
        TransferShape::Direct => elems.iter().map(|v| v & word_mask).collect(),
        TransferShape::Packed { per_beat } => {
            let bits = io.ty.bits;
            let emask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
            elems
                .chunks(per_beat as usize)
                .map(|chunk| {
                    let mut beat = 0u64;
                    for (k, v) in chunk.iter().enumerate() {
                        beat |= (v & emask) << (k as u32 * bits);
                    }
                    beat & word_mask
                })
                .collect()
        }
        TransferShape::Split { beats_per_elem } => {
            let mut out = Vec::with_capacity(elems.len() * beats_per_elem as usize);
            for v in elems {
                // Most-significant word first (Fig 8.4's handshaking order).
                for k in (0..beats_per_elem).rev() {
                    let shift = k * bus_width;
                    let beat = if shift >= 64 { 0 } else { (v >> shift) & word_mask };
                    out.push(beat);
                }
            }
            out
        }
    }
}

/// The bus address `SET_ADDRESS(func_id)` computes (§6.1.1): memory-mapped
/// buses map function *i* at `base + i * word_bytes`; the opcode-coupled FCB
/// addresses functions by id directly.
pub fn func_address(params: &ModuleParams, func_id: u32) -> u64 {
    if params.bus.memory_mapped {
        params.base_address + (func_id as u64) * (params.bus_width as u64 / 8)
    } else {
        func_id as u64
    }
}

/// Lower one driver call to its bus-operation sequence.
pub fn lower_call(
    params: &ModuleParams,
    func: &ValidatedFunction,
    args: &CallArgs,
) -> Result<DriverProgram, LowerError> {
    if args.inst_index >= func.instances {
        return Err(LowerError::BadInstance {
            func: func.name.clone(),
            instances: func.instances,
            got: args.inst_index,
        });
    }
    if args.values.len() != func.inputs.len() {
        return Err(LowerError::ArgCount {
            func: func.name.clone(),
            expected: func.inputs.len(),
            got: args.values.len(),
        });
    }

    let func_id = concrete_func_id(func, args.inst_index);
    let addr = func_address(params, func_id);
    let mut ops = vec![BusOp::Compute { cpu_cycles: CALL_PROLOGUE_CPU_CYCLES }];

    // ---- inputs, in declaration order ----
    for (io, value) in func.inputs.iter().zip(&args.values) {
        let elems = bind_elems(func, io, value, args)?;
        let beats = encode_beats(io, params.bus_width, &elems);
        if io.dma && beats.len() >= DMA_MIN_BEATS {
            emit_dma_writes(params, addr, beats, &mut ops);
        } else {
            emit_writes(params, addr, beats, &mut ops);
        }
    }

    // ---- activation of parameterless functions on strictly synchronous
    // buses: nothing can pause an APB-class interconnect, so the hardware
    // only ever acts on bus events it observes; with no input beats and a
    // status poll that addresses the reserved id 0, a zero-input function
    // would never start. The generated driver fires one dummy write at the
    // function, which its stub treats as the activation trigger.
    if func.inputs.is_empty() && params.bus.sync == splice_spec::bus::SyncClass::StrictlySynchronous
    {
        ops.push(BusOp::Write { addr, data: 0 });
    }

    // ---- completion barrier ----
    let mut result_layout = ResultLayout::None;
    if !func.nowait {
        let status_addr = func_address(params, 0);
        match params.bus.sync {
            splice_spec::bus::SyncClass::StrictlySynchronous => {
                ops.push(BusOp::Poll { addr: status_addr, bit: func_id });
            }
            splice_spec::bus::SyncClass::PseudoAsynchronous => {
                ops.push(BusOp::WaitHandshake);
            }
        }

        // ---- output read-back ----
        if let Some(out) = &func.output {
            let out_elems = output_elem_count(func, out, args)?;
            let beat_count = beats_for(out, params.bus_width, out_elems) as u32;
            if out.dma && beat_count as usize >= DMA_MIN_BEATS {
                emit_dma_reads(params, addr, beat_count, &mut ops);
            } else {
                emit_reads(params, addr, beat_count, &mut ops);
            }
            result_layout = match transfer_shape(out, params.bus_width) {
                TransferShape::Direct => ResultLayout::Direct { elems: out_elems as u32 },
                TransferShape::Packed { per_beat } => ResultLayout::Packed {
                    elems: out_elems as u32,
                    elem_bits: out.ty.bits,
                    per_beat,
                },
                TransferShape::Split { beats_per_elem } => ResultLayout::Split {
                    elems: out_elems as u32,
                    beats_per_elem,
                    bus_width: params.bus_width,
                },
            };
        } else {
            // Blocking void: read the pseudo output state once so the
            // driver pauses until the hardware reaches it (§5.3.1).
            ops.push(BusOp::Read { addr });
        }
    }

    Ok(DriverProgram { function: func.name.clone(), func_id, ops, result_layout })
}

/// How many output elements a call produces.
fn output_elem_count(
    func: &ValidatedFunction,
    out: &ValidatedIo,
    args: &CallArgs,
) -> Result<u64, LowerError> {
    match out.bound {
        IoBound::Scalar => Ok(1),
        IoBound::Explicit(n) => Ok(n),
        IoBound::Implicit { index_param, .. } => {
            let v = args.values[index_param].as_scalar().ok_or_else(|| LowerError::ArgShape {
                func: func.name.clone(),
                param: func.inputs[index_param].name.clone(),
            })?;
            Ok(v)
        }
    }
}

/// Validate one argument against its declaration and return its elements.
fn bind_elems(
    func: &ValidatedFunction,
    io: &ValidatedIo,
    value: &CallValue,
    args: &CallArgs,
) -> Result<Vec<u64>, LowerError> {
    match io.bound {
        IoBound::Scalar => {
            let v = value.as_scalar().ok_or_else(|| LowerError::ArgShape {
                func: func.name.clone(),
                param: io.name.clone(),
            })?;
            Ok(vec![v])
        }
        IoBound::Explicit(n) => {
            let elems = match value {
                CallValue::Array(v) => v.clone(),
                CallValue::Scalar(_) => {
                    return Err(LowerError::ArgShape {
                        func: func.name.clone(),
                        param: io.name.clone(),
                    })
                }
            };
            if elems.len() as u64 != n {
                return Err(LowerError::BoundMismatch {
                    func: func.name.clone(),
                    param: io.name.clone(),
                    expected: n,
                    got: elems.len() as u64,
                });
            }
            Ok(elems)
        }
        IoBound::Implicit { index_param, .. } => {
            let elems = match value {
                CallValue::Array(v) => v.clone(),
                CallValue::Scalar(_) => {
                    return Err(LowerError::ArgShape {
                        func: func.name.clone(),
                        param: io.name.clone(),
                    })
                }
            };
            let idx_val =
                args.values[index_param].as_scalar().ok_or_else(|| LowerError::ArgShape {
                    func: func.name.clone(),
                    param: func.inputs[index_param].name.clone(),
                })?;
            if elems.len() as u64 != idx_val {
                return Err(LowerError::ImplicitMismatch {
                    func: func.name.clone(),
                    param: io.name.clone(),
                    index_value: idx_val,
                    got: elems.len() as u64,
                });
            }
            Ok(elems)
        }
    }
}

/// Emit write ops, bursting where `%burst_support` and the bus allow:
/// quads first, then doubles, then singles (the WRITE_QUAD / WRITE_DOUBLE /
/// WRITE_SINGLE lowering of §6.1.1).
fn emit_writes(params: &ModuleParams, addr: u64, beats: Vec<u64>, ops: &mut Vec<BusOp>) {
    if params.burst {
        let mut it = beats.into_iter().peekable();
        let mut buf: Vec<u64> = Vec::with_capacity(4);
        while it.peek().is_some() {
            buf.clear();
            while buf.len() < 4 {
                match it.next() {
                    Some(b) => buf.push(b),
                    None => break,
                }
            }
            match buf.len() {
                4 if params.bus.supports_burst(4) => {
                    ops.push(BusOp::WriteBurst { addr, data: buf.clone() })
                }
                4 => emit_pairs_or_singles(params, addr, &buf, ops),
                n => {
                    let tmp: Vec<u64> = buf[..n].to_vec();
                    emit_pairs_or_singles(params, addr, &tmp, ops);
                }
            }
        }
    } else {
        for b in beats {
            ops.push(BusOp::Write { addr, data: b });
        }
    }
}

fn emit_pairs_or_singles(params: &ModuleParams, addr: u64, beats: &[u64], ops: &mut Vec<BusOp>) {
    let mut i = 0;
    while i < beats.len() {
        if beats.len() - i >= 2 && params.bus.supports_burst(2) {
            ops.push(BusOp::WriteBurst { addr, data: beats[i..i + 2].to_vec() });
            i += 2;
        } else {
            ops.push(BusOp::Write { addr, data: beats[i] });
            i += 1;
        }
    }
}

/// Emit read ops with the same burst lowering.
fn emit_reads(params: &ModuleParams, addr: u64, mut beats: u32, ops: &mut Vec<BusOp>) {
    if params.burst {
        while beats >= 4 && params.bus.supports_burst(4) {
            ops.push(BusOp::ReadBurst { addr, beats: 4 });
            beats -= 4;
        }
        while beats >= 2 && params.bus.supports_burst(2) {
            ops.push(BusOp::ReadBurst { addr, beats: 2 });
            beats -= 2;
        }
    }
    for _ in 0..beats {
        ops.push(BusOp::Read { addr });
    }
}

/// Emit DMA writes, chunked to the bus's per-transaction byte limit
/// (PLB: 256 bytes, §2.3.2).
fn emit_dma_writes(params: &ModuleParams, addr: u64, beats: Vec<u64>, ops: &mut Vec<BusOp>) {
    let max_beats = dma_chunk_beats(params);
    for chunk in beats.chunks(max_beats) {
        ops.push(BusOp::DmaWrite { addr, data: chunk.to_vec() });
    }
}

fn emit_dma_reads(params: &ModuleParams, addr: u64, beats: u32, ops: &mut Vec<BusOp>) {
    let max_beats = dma_chunk_beats(params) as u32;
    let mut remaining = beats;
    while remaining > 0 {
        let n = remaining.min(max_beats);
        ops.push(BusOp::DmaRead { addr, beats: n });
        remaining -= n;
    }
}

fn dma_chunk_beats(params: &ModuleParams) -> usize {
    let bytes_per_beat = (params.bus_width / 8).max(1);
    (params.bus.dma_max_bytes / bytes_per_beat).max(1) as usize
}

/// How many read beats a call will produce (used by the CPU master to size
/// its result buffer).
pub fn expected_read_beats(
    params: &ModuleParams,
    func: &ValidatedFunction,
    args: &CallArgs,
) -> Result<u32, LowerError> {
    Ok(lower_call(params, func, args)?.read_beats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_spec::parse_and_validate;
    use splice_spec::validate::ModuleSpec;

    fn module(decls: &str, extra_directives: &str) -> ModuleSpec {
        let src = format!(
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n{extra_directives}\n{decls}"
        );
        parse_and_validate(&src).expect("spec valid").module
    }

    #[test]
    fn simple_scalar_call_shape() {
        // Fig 6.1: float sample_function(int* x:2, int y) — 2 writes of x,
        // 1 write of y, wait, 1 read.
        let m = module("float sample_function(int*:2 x, int y);", "");
        let f = m.function("sample_function").unwrap();
        let args = CallArgs::new(vec![CallValue::Array(vec![10, 20]), CallValue::Scalar(7)]);
        let p = lower_call(&m.params, f, &args).unwrap();
        let writes: Vec<&BusOp> =
            p.ops.iter().filter(|o| matches!(o, BusOp::Write { .. })).collect();
        assert_eq!(writes.len(), 3);
        assert!(p.ops.contains(&BusOp::WaitHandshake));
        assert_eq!(p.read_beats(), 1);
        assert_eq!(p.func_id, 1);
        // Address: base + id*4.
        match &p.ops[1] {
            BusOp::Write { addr, data } => {
                assert_eq!(*addr, 0x8000_0004);
                assert_eq!(*data, 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn void_blocking_reads_pseudo_output() {
        let m = module("void fire(int x);", "");
        let f = m.function("fire").unwrap();
        let p = lower_call(&m.params, f, &CallArgs::scalars(&[1])).unwrap();
        assert_eq!(p.read_beats(), 1, "pseudo output state read");
        assert_eq!(p.result_layout, ResultLayout::None);
    }

    #[test]
    fn nowait_skips_barrier_and_reads() {
        let m = module("nowait fire(int x);", "");
        let f = m.function("fire").unwrap();
        let p = lower_call(&m.params, f, &CallArgs::scalars(&[1])).unwrap();
        assert_eq!(p.read_beats(), 0);
        assert!(!p.ops.contains(&BusOp::WaitHandshake));
        assert!(!p.ops.iter().any(|o| matches!(o, BusOp::Poll { .. })));
    }

    #[test]
    fn split_64_bit_over_32_bus_msw_first() {
        let m =
            module("void set_threshold(llong thold);", "%user_type llong, unsigned long long, 64");
        let f = m.function("set_threshold").unwrap();
        let args = CallArgs::new(vec![CallValue::Scalar(0xAAAA_BBBB_CCCC_DDDD)]);
        let p = lower_call(&m.params, f, &args).unwrap();
        let beats: Vec<u64> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                BusOp::Write { data, .. } => Some(*data),
                _ => None,
            })
            .collect();
        assert_eq!(beats, vec![0xAAAA_BBBB, 0xCCCC_DDDD]);
    }

    #[test]
    fn packed_chars_fill_beats() {
        let m = module("void send(char*:8+ x);", "");
        let f = m.function("send").unwrap();
        let args = CallArgs::new(vec![CallValue::Array(vec![1, 2, 3, 4, 5, 6, 7, 8])]);
        let p = lower_call(&m.params, f, &args).unwrap();
        let beats: Vec<u64> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                BusOp::Write { data, .. } => Some(*data),
                _ => None,
            })
            .collect();
        // 8 chars / 4 per beat = 2 beats (the §3.1.3 "2 cycles not 8" claim).
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0], 0x0403_0201);
        assert_eq!(beats[1], 0x0807_0605);
    }

    #[test]
    fn packed_tail_partial_beat() {
        let m = module("void send(char*:5+ x);", "");
        let f = m.function("send").unwrap();
        let args = CallArgs::new(vec![CallValue::Array(vec![1, 2, 3, 4, 5])]);
        let p = lower_call(&m.params, f, &args).unwrap();
        assert_eq!(p.total_beats(), 2 + 1, "2 write beats + 1 pseudo-output read");
    }

    #[test]
    fn implicit_bound_binds_runtime_length() {
        let m = module("void f(int x, int*:x y);", "");
        let f = m.function("f").unwrap();
        let ok = CallArgs::new(vec![CallValue::Scalar(3), CallValue::Array(vec![7, 8, 9])]);
        let p = lower_call(&m.params, f, &ok).unwrap();
        // 1 (x) + 3 (y) writes + 1 pseudo-output read.
        assert_eq!(p.total_beats(), 5);
        let bad = CallArgs::new(vec![CallValue::Scalar(2), CallValue::Array(vec![7, 8, 9])]);
        assert!(matches!(lower_call(&m.params, f, &bad), Err(LowerError::ImplicitMismatch { .. })));
    }

    #[test]
    fn burst_groups_quads_then_doubles() {
        let m = module("void f(int*:7 x);", "%burst_support true");
        let f = m.function("f").unwrap();
        let args = CallArgs::new(vec![CallValue::Array((0..7).collect())]);
        let p = lower_call(&m.params, f, &args).unwrap();
        let kinds: Vec<u32> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                BusOp::WriteBurst { data, .. } => Some(data.len() as u32),
                BusOp::Write { .. } => Some(1),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![4, 2, 1]);
    }

    #[test]
    fn dma_chunks_to_256_bytes() {
        // 100 ints = 400 bytes > 256-byte PLB DMA limit → 2 transactions.
        let m = module("void f(int*:100^ x);", "%dma_support true");
        let f = m.function("f").unwrap();
        let args = CallArgs::new(vec![CallValue::Array((0..100).collect())]);
        let p = lower_call(&m.params, f, &args).unwrap();
        let dma: Vec<usize> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                BusOp::DmaWrite { data, .. } => Some(data.len()),
                _ => None,
            })
            .collect();
        assert_eq!(dma, vec![64, 36]);
    }

    #[test]
    fn strict_sync_uses_poll() {
        let src = "%device_name d\n%bus_type apb\n%bus_width 32\n%base_address 0x80000000\nlong f(int x);";
        let m = parse_and_validate(src).unwrap().module;
        let f = m.function("f").unwrap();
        let p = lower_call(&m.params, f, &CallArgs::scalars(&[1])).unwrap();
        assert!(p.ops.iter().any(|o| matches!(o, BusOp::Poll { bit: 1, .. })));
        assert!(!p.ops.contains(&BusOp::WaitHandshake));
    }

    #[test]
    fn fcb_addresses_by_func_id() {
        let src = "%device_name d\n%bus_type fcb\n%bus_width 32\nlong f(int x);";
        let m = parse_and_validate(src).unwrap().module;
        let f = m.function("f").unwrap();
        let p = lower_call(&m.params, f, &CallArgs::scalars(&[1])).unwrap();
        match &p.ops[1] {
            BusOp::Write { addr, .. } => assert_eq!(*addr, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_instance_offsets_func_id() {
        let m = module("long f(int x):4;", "");
        let f = m.function("f").unwrap();
        let p2 = lower_call(&m.params, f, &CallArgs::scalars(&[1]).with_instance(2)).unwrap();
        assert_eq!(p2.func_id, 3); // first id 1 + instance 2
        let bad = lower_call(&m.params, f, &CallArgs::scalars(&[1]).with_instance(9));
        assert!(matches!(bad, Err(LowerError::BadInstance { .. })));
    }

    #[test]
    fn arg_errors() {
        let m = module("long f(int x, int*:2 y);", "");
        let f = m.function("f").unwrap();
        assert!(matches!(
            lower_call(&m.params, f, &CallArgs::scalars(&[1])),
            Err(LowerError::ArgCount { .. })
        ));
        let shape = CallArgs::new(vec![CallValue::Array(vec![1]), CallValue::Array(vec![1, 2])]);
        assert!(matches!(lower_call(&m.params, f, &shape), Err(LowerError::ArgShape { .. })));
        let bound = CallArgs::new(vec![CallValue::Scalar(1), CallValue::Array(vec![1, 2, 3])]);
        assert!(matches!(lower_call(&m.params, f, &bound), Err(LowerError::BoundMismatch { .. })));
    }

    #[test]
    fn packed_output_layout() {
        let m = module("char*:8+ gen();", "");
        let f = m.function("gen").unwrap();
        let p = lower_call(&m.params, f, &CallArgs::none()).unwrap();
        assert_eq!(p.read_beats(), 2);
        assert_eq!(p.result_layout, ResultLayout::Packed { elems: 8, elem_bits: 8, per_beat: 4 });
    }

    #[test]
    fn split_output_layout_roundtrips() {
        let m = module("llong get_threshold();", "%user_type llong, unsigned long long, 64");
        let f = m.function("get_threshold").unwrap();
        let p = lower_call(&m.params, f, &CallArgs::none()).unwrap();
        assert_eq!(p.read_beats(), 2);
        let decoded = p.decode_result(&[0x1234_5678, 0x9ABC_DEF0]);
        assert_eq!(decoded, vec![0x1234_5678_9ABC_DEF0]);
    }

    #[test]
    fn expected_read_beats_matches_program() {
        let m = module("int*:4 quad(int x);", "");
        let f = m.function("quad").unwrap();
        let args = CallArgs::scalars(&[5]);
        assert_eq!(expected_read_beats(&m.params, f, &args).unwrap(), 4);
    }
}
