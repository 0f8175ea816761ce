//! The transfer plan of a driver function, and its lowering to a
//! [`DriverProgram`].
//!
//! `plan` is the one place that decides how a call crosses the bus: each
//! input in declaration order (packed, split, bursted or by DMA), the
//! activation write of a parameterless function on a strictly synchronous
//! bus, `WAIT_FOR_RESULTS`, then the output read-back. The C printer
//! ([`crate::cgen`]) prints the plan as the driver bodies of Figs 6.1/6.2,
//! and [`lower_call`] binds it to argument values as the operations the
//! simulated CPU executes.

use crate::program::{concrete_func_id, BusOp, CallArgs, CallValue, DriverProgram, ResultLayout};
use splice_spec::bus::SyncClass;
use splice_spec::validate::{IoBound, ModuleParams, ValidatedFunction, ValidatedIo};
use std::fmt;

/// CPU cycles of fixed call overhead (SET_ADDRESS, stack frame, result
/// storage — the prologue every generated driver shares).
pub const CALL_PROLOGUE_CPU_CYCLES: u32 = 6;

/// DMA transfers of fewer beats than this fall back to programmed I/O:
/// "the DMA circuitry requires a minimum of four bus transactions to
/// setup and take down, thus negating any benefits for lesser
/// transmissions" (§9.2.1), so the generated driver only engages the
/// engine where it can pay off.
pub const DMA_MIN_BEATS: u64 = 5;

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

/// The beat count of one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Beats {
    /// Fixed by the declaration.
    Static(u64),
    /// Set at call time by the value of the input at this declaration
    /// index (an implicit bound), through the transfer shape.
    Runtime(usize),
}

/// How one input or output crosses the bus.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer<'a> {
    /// The declared input or output.
    pub(crate) io: &'a ValidatedIo,
    /// How its elements map onto beats.
    pub(crate) shape: TransferShape,
    /// How many beats it moves.
    pub(crate) beats: Beats,
}

impl<'a> Transfer<'a> {
    fn new(params: &ModuleParams, io: &'a ValidatedIo) -> Self {
        let shape = transfer_shape(io, params.bus_width);
        let beats = match io.bound {
            IoBound::Scalar => Beats::Static(shape.beats(1)),
            IoBound::Explicit(n) => Beats::Static(shape.beats(n)),
            IoBound::Implicit { index_param, .. } => Beats::Runtime(index_param),
        };
        Transfer { io, shape, beats }
    }

    /// Whether the DMA engine carries `beats` beats of this transfer: it
    /// must be declared `^` and reach [`DMA_MIN_BEATS`].
    pub(crate) fn by_dma(&self, beats: u64) -> bool {
        self.io.dma && beats >= DMA_MIN_BEATS
    }
}

/// One step of a driver body, in the order the driver performs it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step<'a> {
    /// Send the input at this declaration index.
    Input(usize, Transfer<'a>),
    /// Start a parameterless function on a strictly synchronous bus.
    /// Nothing can pause an APB-class interconnect, so the hardware only
    /// acts on bus events it observes; with no input beats and a status
    /// poll that addresses the reserved id 0, a zero-input function would
    /// never start. The driver writes one dummy word to the function.
    Activate,
    /// `WAIT_FOR_RESULTS`: a status poll on a strictly synchronous bus, a
    /// NULL statement on a pseudo-asynchronous one (§6.1.1).
    Barrier,
    /// Read the output back.
    Output(Transfer<'a>),
    /// Read the pseudo output state of a blocking `void` function, so the
    /// driver pauses until the hardware reaches it (§5.3.1).
    SyncRead,
}

/// The transfer plan of `f`: its steps in execution order.
pub(crate) fn plan<'a>(
    params: &'a ModuleParams,
    f: &'a ValidatedFunction,
) -> impl Iterator<Item = Step<'a>> + 'a {
    let activate = f.inputs.is_empty() && params.bus.sync == SyncClass::StrictlySynchronous;
    let back =
        f.output.as_ref().map_or(Step::SyncRead, |out| Step::Output(Transfer::new(params, out)));
    let finish = (!f.nowait).then_some([Step::Barrier, back]);
    f.inputs
        .iter()
        .enumerate()
        .map(move |(i, io)| Step::Input(i, Transfer::new(params, io)))
        .chain(activate.then_some(Step::Activate))
        .chain(finish.into_iter().flatten())
}

/// The macro widths programmed I/O may use, widest first: `QUAD` and
/// `DOUBLE` where `%burst_support` is on and the bus bursts natively, then
/// `SINGLE`.
pub(crate) fn macro_widths(params: &ModuleParams) -> impl Iterator<Item = u32> + '_ {
    [4, 2].into_iter().filter(move |&w| params.burst && params.bus.supports_burst(w)).chain([1])
}

/// Group `beats` programmed-I/O beats into macros: as many of the widest
/// as fit, then of the next (the QUAD/DOUBLE/SINGLE lowering of §6.1.1),
/// so 7 beats with quads and doubles become 4, 2, 1.
pub(crate) fn burst_groups(params: &ModuleParams, beats: u64) -> impl Iterator<Item = u32> + '_ {
    let mut left = beats;
    macro_widths(params).flat_map(move |w| {
        let n = left / w as u64;
        left %= w as u64;
        std::iter::repeat_n(w, n as usize)
    })
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
    let mut result_layout = ResultLayout::None;
    for step in plan(params, func) {
        match step {
            Step::Input(i, t) => {
                let elems = bind_elems(func, t.io, &args.values[i], args)?;
                let beats = encode_beats(t.io, params.bus_width, &elems);
                lower_transfer(params, &t, beats.len() as u64, &mut ops, |dma, at, n| {
                    let data = &beats[at..at + n];
                    match (dma, n) {
                        (true, _) => BusOp::DmaWrite { addr, data: data.to_vec() },
                        (false, 1) => BusOp::Write { addr, data: data[0] },
                        (false, _) => BusOp::WriteBurst { addr, data: data.to_vec() },
                    }
                });
            }
            Step::Activate => ops.push(BusOp::Write { addr, data: 0 }),
            Step::Barrier => ops.push(match params.bus.sync {
                SyncClass::StrictlySynchronous => {
                    BusOp::Poll { addr: func_address(params, 0), bit: func_id }
                }
                SyncClass::PseudoAsynchronous => BusOp::WaitHandshake,
            }),
            Step::Output(t) => {
                let elems = output_elem_count(func, t.io, args)?;
                lower_transfer(params, &t, t.shape.beats(elems), &mut ops, |dma, _, n| {
                    match (dma, n) {
                        (true, _) => BusOp::DmaRead { addr, beats: n as u32 },
                        (false, 1) => BusOp::Read { addr },
                        (false, _) => BusOp::ReadBurst { addr, beats: n as u32 },
                    }
                });
                let elems = elems as u32;
                result_layout = match t.shape {
                    TransferShape::Direct => ResultLayout::Direct { elems },
                    TransferShape::Packed { per_beat } => {
                        ResultLayout::Packed { elems, elem_bits: t.io.ty.bits, per_beat }
                    }
                    TransferShape::Split { beats_per_elem } => {
                        ResultLayout::Split { elems, beats_per_elem, bus_width: params.bus_width }
                    }
                };
            }
            Step::SyncRead => ops.push(BusOp::Read { addr }),
        }
    }

    Ok(DriverProgram { function: func.name.clone(), func_id, ops, result_layout })
}

/// Push the operations moving `beats` beats of `t`: DMA transactions of
/// at most the bus's DMA size (PLB: 256 bytes, §2.3.2) when DMA carries the
/// transfer, else the burst groups. `op(dma, at, n)` builds the operation
/// for beats `at..at + n`.
fn lower_transfer(
    params: &ModuleParams,
    t: &Transfer,
    beats: u64,
    ops: &mut Vec<BusOp>,
    op: impl Fn(bool, usize, usize) -> BusOp,
) {
    let (beats, mut at) = (beats as usize, 0);
    if t.by_dma(beats as u64) {
        let chunk = (params.bus.dma_max_bytes / (params.bus_width / 8).max(1)).max(1) as usize;
        while at < beats {
            let n = chunk.min(beats - at);
            ops.push(op(true, at, n));
            at += n;
        }
    } else {
        for w in burst_groups(params, beats as u64) {
            ops.push(op(false, at, w as usize));
            at += w as usize;
        }
    }
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
    fn dma_below_the_threshold_falls_back_to_programmed_io() {
        let m = module("void f(int*:4^ x, int*:5^ y);", "%dma_support true");
        let f = m.function("f").unwrap();
        let args = CallArgs::new(vec![
            CallValue::Array((0..4).collect()),
            CallValue::Array((0..5).collect()),
        ]);
        let p = lower_call(&m.params, f, &args).unwrap();
        let writes = p.ops.iter().filter(|o| matches!(o, BusOp::Write { .. })).count();
        let dma: Vec<u32> = p
            .ops
            .iter()
            .filter(|o| matches!(o, BusOp::DmaWrite { .. }))
            .map(BusOp::beats)
            .collect();
        assert_eq!((writes, dma), (4, vec![5]), "{:?}", p.ops);
    }

    #[test]
    fn plan_orders_inputs_activation_barrier_and_output() {
        let src = "%device_name d\n%bus_type apb\n%bus_width 32\n%base_address 0x80000000\n\
                   int go();\nvoid set(int x);\nnowait fire(int x);";
        let m = parse_and_validate(src).unwrap().module;
        let kinds = |name: &str| -> Vec<&'static str> {
            plan(&m.params, m.function(name).unwrap())
                .map(|s| match s {
                    Step::Input(..) => "in",
                    Step::Activate => "go",
                    Step::Barrier => "wait",
                    Step::Output(_) => "out",
                    Step::SyncRead => "sync",
                })
                .collect()
        };
        assert_eq!(kinds("go"), ["go", "wait", "out"]);
        assert_eq!(kinds("set"), ["in", "wait", "sync"]);
        assert_eq!(kinds("fire"), ["in"]);
    }

    #[test]
    fn burst_groups_are_greedy_over_the_enabled_widths() {
        let groups = |extra: &str, beats| {
            let m = module("void f();", extra);
            burst_groups(&m.params, beats).collect::<Vec<_>>()
        };
        assert_eq!(groups("%burst_support true", 11), [4, 4, 2, 1]);
        assert_eq!(groups("", 3), [1, 1, 1]);
    }
}
