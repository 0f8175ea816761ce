//! The executable driver representation.
//!
//! A [`DriverProgram`] is the transaction sequence a generated C driver
//! performs for one call: exactly the macro invocations of Fig 6.1/6.2,
//! bound to concrete argument values. The simulated CPU master executes
//! these ops against a native bus model with PPC405-flavoured issue costs.

use splice_spec::validate::{transfer_shape, TransferShape, ValidatedFunction, ValidatedIo};

/// One bus-level operation, corresponding 1:1 to a driver macro invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusOp {
    /// `WRITE_SINGLE(addr, &v)` — one beat.
    Write { addr: u64, data: u64 },
    /// `WRITE_DOUBLE` / `WRITE_QUAD` — a native burst of 2 or 4 beats.
    WriteBurst { addr: u64, data: Vec<u64> },
    /// `READ_SINGLE(addr, &v)` — one beat; the value lands in the result
    /// buffer in op order.
    Read { addr: u64 },
    /// `READ_DOUBLE` / `READ_QUAD` — a native burst read of 2 or 4 beats.
    ReadBurst { addr: u64, beats: u32 },
    /// `WAIT_FOR_RESULTS` on a strictly synchronous bus: poll `addr` (the
    /// status register at function id 0) until bit `bit` rises.
    Poll { addr: u64, bit: u32 },
    /// `WAIT_FOR_RESULTS` on a pseudo-asynchronous bus: a NULL statement —
    /// ordering is guaranteed by the per-beat handshake (§6.1.1).
    WaitHandshake,
    /// `WRITE_DMA(addr, buf, n)` — a DMA engine moves `data` without CPU
    /// beats (the CPU pays setup/teardown only).
    DmaWrite { addr: u64, data: Vec<u64> },
    /// `READ_DMA(addr, buf, n)`.
    DmaRead { addr: u64, beats: u32 },
    /// CPU-side work between bus operations (argument marshalling, loop
    /// overhead), in CPU clock cycles.
    Compute { cpu_cycles: u32 },
    /// Sleep until the completion interrupt for function id `bit` arrives
    /// (`%irq_support`, thesis future work §10.2). The CPU does no bus
    /// traffic while waiting.
    WaitIrq { bit: u32 },
}

impl BusOp {
    /// Number of data beats this op moves over the bus.
    pub fn beats(&self) -> u32 {
        match self {
            BusOp::Write { .. } | BusOp::Read { .. } => 1,
            BusOp::WriteBurst { data, .. } => data.len() as u32,
            BusOp::ReadBurst { beats, .. } => *beats,
            BusOp::DmaWrite { data, .. } => data.len() as u32,
            BusOp::DmaRead { beats, .. } => *beats,
            BusOp::Poll { .. }
            | BusOp::WaitHandshake
            | BusOp::Compute { .. }
            | BusOp::WaitIrq { .. } => 0,
        }
    }

    /// True for operations that produce read data.
    pub fn is_read(&self) -> bool {
        matches!(self, BusOp::Read { .. } | BusOp::ReadBurst { .. } | BusOp::DmaRead { .. })
    }
}

/// One argument value bound at call time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallValue {
    /// A scalar parameter.
    Scalar(u64),
    /// A pointer parameter: the array elements.
    Array(Vec<u64>),
}

impl CallValue {
    /// The scalar value (an array is an error).
    pub fn as_scalar(&self) -> Option<u64> {
        match self {
            CallValue::Scalar(v) => Some(*v),
            CallValue::Array(_) => None,
        }
    }

    /// The element slice (a scalar yields a one-element view).
    pub fn elements(&self) -> Vec<u64> {
        match self {
            CallValue::Scalar(v) => vec![*v],
            CallValue::Array(v) => v.clone(),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            CallValue::Scalar(_) => 1,
            CallValue::Array(v) => v.len(),
        }
    }

    /// True when an array value holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The bound arguments of one driver call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallArgs {
    /// One value per declared input, in declaration order.
    pub values: Vec<CallValue>,
    /// Instance index for multi-instance functions (`inst_index`, Fig 6.2).
    pub inst_index: u32,
}

impl CallArgs {
    /// No arguments, instance 0.
    pub fn none() -> Self {
        CallArgs::default()
    }

    /// Build from a list of values.
    pub fn new(values: Vec<CallValue>) -> Self {
        CallArgs { values, inst_index: 0 }
    }

    /// Select a hardware instance (§6.1.2).
    pub fn with_instance(mut self, inst_index: u32) -> Self {
        self.inst_index = inst_index;
        self
    }

    /// Convenience: all-scalar arguments.
    pub fn scalars(vals: &[u64]) -> Self {
        CallArgs::new(vals.iter().map(|&v| CallValue::Scalar(v)).collect())
    }
}

/// A lowered driver call: the op sequence plus the metadata needed to
/// decode the read-back beats into result elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverProgram {
    /// The function name this program drives.
    pub function: String,
    /// The concrete FUNC_ID targeted (first id + instance index).
    pub func_id: u32,
    /// Bus operations in execution order.
    pub ops: Vec<BusOp>,
    /// How the read-back beats decode into output elements (bit width of an
    /// element and whether they were packed/split).
    pub result_layout: ResultLayout,
}

/// How read beats map back to C-level output elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultLayout {
    /// No value returned (void pseudo-output or nowait): reads, if any, are
    /// discarded.
    None,
    /// One element per beat.
    Direct { elems: u32 },
    /// `per_beat` elements packed into each beat, `elem_bits` wide each.
    Packed { elems: u32, elem_bits: u32, per_beat: u32 },
    /// Each element split across `beats_per_elem` beats, most-significant
    /// word first.
    Split { elems: u32, beats_per_elem: u32, bus_width: u32 },
}

impl ResultLayout {
    /// How `elems` elements of `io` lie in the beats of a `bus_width`-bit
    /// bus, per its transfer shape (the driver's result read-back and the
    /// stub's input decode share it).
    pub fn of(io: &ValidatedIo, bus_width: u32, elems: u32) -> ResultLayout {
        match transfer_shape(io, bus_width) {
            TransferShape::Direct => ResultLayout::Direct { elems },
            TransferShape::Packed { per_beat } => {
                ResultLayout::Packed { elems, elem_bits: io.ty.bits, per_beat }
            }
            TransferShape::Split { beats_per_elem } => {
                ResultLayout::Split { elems, beats_per_elem, bus_width }
            }
        }
    }
}

impl DriverProgram {
    /// Total bus beats the program will move (excluding polls).
    pub fn total_beats(&self) -> u32 {
        self.ops.iter().map(BusOp::beats).sum()
    }

    /// Total read beats expected back.
    pub fn read_beats(&self) -> u32 {
        self.ops.iter().filter(|o| o.is_read()).map(BusOp::beats).sum()
    }

    /// Decode raw read-back beats into C-level output elements.
    pub fn decode_result(&self, raw: &[u64]) -> Vec<u64> {
        decode_with(self.result_layout, raw)
    }
}

/// Decode raw bus beats into elements per `layout` (shared by the driver
/// result path and the generated hardware stubs' input path, so software
/// and hardware can never disagree about the wire format).
pub fn decode_with(layout: ResultLayout, raw: &[u64]) -> Vec<u64> {
    match layout {
        ResultLayout::None => Vec::new(),
        ResultLayout::Direct { elems } => raw.iter().take(elems as usize).copied().collect(),
        ResultLayout::Packed { elems, elem_bits, per_beat } => {
            let mask = if elem_bits >= 64 { u64::MAX } else { (1 << elem_bits) - 1 };
            let mut out = Vec::with_capacity(elems as usize);
            'outer: for beat in raw {
                for k in 0..per_beat {
                    if out.len() == elems as usize {
                        break 'outer;
                    }
                    out.push((beat >> (k * elem_bits)) & mask);
                }
            }
            out
        }
        ResultLayout::Split { elems, beats_per_elem, bus_width } => {
            let mut out = Vec::with_capacity(elems as usize);
            for chunk in raw.chunks(beats_per_elem as usize).take(elems as usize) {
                let mut v: u64 = 0;
                for beat in chunk {
                    // Most-significant word arrives first (Fig 8.4).
                    v = if bus_width >= 64 { *beat } else { (v << bus_width) | *beat };
                }
                out.push(v);
            }
            out
        }
    }
}

/// Compute the concrete FUNC_ID for a call: `first_func_id + inst_index`
/// (Fig 6.2's `SAMPLE_FUNCTION_ID + inst_index`).
pub fn concrete_func_id(f: &ValidatedFunction, inst_index: u32) -> u32 {
    f.first_func_id + inst_index.min(f.instances.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_accounting() {
        assert_eq!(BusOp::Write { addr: 0, data: 0 }.beats(), 1);
        assert_eq!(BusOp::WriteBurst { addr: 0, data: vec![1, 2, 3, 4] }.beats(), 4);
        assert_eq!(BusOp::ReadBurst { addr: 0, beats: 2 }.beats(), 2);
        assert_eq!(BusOp::Poll { addr: 0, bit: 3 }.beats(), 0);
        assert_eq!(BusOp::Compute { cpu_cycles: 10 }.beats(), 0);
        assert!(BusOp::DmaRead { addr: 0, beats: 8 }.is_read());
        assert!(!BusOp::WaitHandshake.is_read());
    }

    #[test]
    fn decode_direct() {
        let p = DriverProgram {
            function: "f".into(),
            func_id: 1,
            ops: vec![],
            result_layout: ResultLayout::Direct { elems: 2 },
        };
        assert_eq!(p.decode_result(&[5, 6, 7]), vec![5, 6]);
    }

    #[test]
    fn decode_packed_chars() {
        // 4 chars per 32-bit beat, element 0 in the low byte.
        let p = DriverProgram {
            function: "f".into(),
            func_id: 1,
            ops: vec![],
            result_layout: ResultLayout::Packed { elems: 6, elem_bits: 8, per_beat: 4 },
        };
        let raw = [0x44332211u64, 0x0000_6655];
        assert_eq!(p.decode_result(&raw), vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66]);
    }

    #[test]
    fn decode_split_64_over_32() {
        // MSW first.
        let p = DriverProgram {
            function: "f".into(),
            func_id: 1,
            ops: vec![],
            result_layout: ResultLayout::Split { elems: 2, beats_per_elem: 2, bus_width: 32 },
        };
        let raw = [0xDEAD_0000u64, 0x0000_BEEF, 0x1, 0x2];
        assert_eq!(p.decode_result(&raw), vec![0xDEAD_0000_0000_BEEF, 0x1_0000_0002]);
    }

    #[test]
    fn call_value_helpers() {
        let s = CallValue::Scalar(9);
        assert_eq!(s.as_scalar(), Some(9));
        assert_eq!(s.elements(), vec![9]);
        assert_eq!(s.len(), 1);
        let a = CallValue::Array(vec![1, 2, 3]);
        assert_eq!(a.as_scalar(), None);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(CallValue::Array(vec![]).is_empty());
    }

    #[test]
    fn call_args_builders() {
        let a = CallArgs::scalars(&[1, 2]).with_instance(3);
        assert_eq!(a.inst_index, 3);
        assert_eq!(a.values.len(), 2);
        assert_eq!(CallArgs::none().values.len(), 0);
    }
}
