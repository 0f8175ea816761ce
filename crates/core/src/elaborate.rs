//! Elaboration: [`ModuleSpec`] → [`DesignIr`].
//!
//! Chapter 5's generation pipeline, stage 3: for every declaration build
//! the ICOB state sequence ("the input stages within a function mimic the
//! order and structure of those defined within the associated software
//! prototype"), instantiate tracking registers for array transfers, size
//! the state machine, and record the trailing-bit notes of §5.3.1.

use crate::ir::{bits_for, BeatCount, DesignIr, FunctionStub, StubState, Tracker};
use splice_driver::lower::{beats_for, transfer_shape, TransferShape};
use splice_spec::validate::{IoBound, ModuleSpec, ValidatedFunction, ValidatedIo};

/// Elaborate a validated module into the design IR.
pub fn elaborate(module: &ModuleSpec) -> DesignIr {
    let mut notes = Vec::new();
    let stubs =
        module.functions.iter().map(|f| elaborate_function(module, f, &mut notes)).collect();
    DesignIr { module: module.clone(), stubs, notes }
}

fn elaborate_function(
    module: &ModuleSpec,
    f: &ValidatedFunction,
    notes: &mut Vec<String>,
) -> FunctionStub {
    let bus_width = module.params.bus_width;
    let mut states = Vec::with_capacity(f.inputs.len() + 2);
    let mut trackers = Vec::new();

    for (i, io) in f.inputs.iter().enumerate() {
        let beats = beat_count(f, io, bus_width);
        let tail = tail_bits(io, bus_width, notes, &f.name);
        if needs_tracker(io, &beats) {
            trackers.push(make_tracker(io, bus_width, &beats));
        }
        states.push(StubState::Input { io: i, beats, ignore_tail_bits: tail });
    }

    // "A single calculation stage is initially left blank for the end-user
    // to fill in" (§5.3.1) — present for every function.
    states.push(StubState::Calc);

    match (&f.output, f.nowait) {
        (Some(out), _) => {
            let beats = beat_count(f, out, bus_width);
            let tail = tail_bits(out, bus_width, notes, &f.name);
            if needs_tracker(out, &beats) {
                trackers.push(make_tracker(out, bus_width, &beats));
            }
            states.push(StubState::Output { beats, ignore_tail_bits: tail });
        }
        (None, false) => states.push(StubState::PseudoOutput),
        (None, true) => { /* nowait: control never returns through the bus */ }
    }

    FunctionStub {
        name: f.name.clone(),
        first_func_id: f.first_func_id,
        instances: f.instances,
        states,
        trackers,
        nowait: f.nowait,
    }
}

fn beat_count(f: &ValidatedFunction, io: &ValidatedIo, bus_width: u32) -> BeatCount {
    match io.bound {
        IoBound::Scalar => BeatCount::Static(beats_for(io, bus_width, 1)),
        IoBound::Explicit(n) => BeatCount::Static(beats_for(io, bus_width, n)),
        IoBound::Implicit { index_param, .. } => {
            BeatCount::Dynamic { index_input: index_param, shape: transfer_shape(io, bus_width) }
        }
    }
    .normalize(f)
}

impl BeatCount {
    /// Degenerate-dynamic normalisation hook (currently the identity; kept
    /// so future folding of constant implicit bounds has a seam).
    fn normalize(self, _f: &ValidatedFunction) -> BeatCount {
        self
    }
}

fn needs_tracker(io: &ValidatedIo, beats: &BeatCount) -> bool {
    let _ = io;
    match beats {
        // Any multi-beat transfer needs beat counting — arrays *and* split
        // scalars ("the end-user is responsible for reassembling the split
        // data transfers", §3.1.4, which requires knowing the beat index).
        BeatCount::Static(n) => *n > 1,
        BeatCount::Dynamic { .. } => true,
    }
}

fn make_tracker(io: &ValidatedIo, bus_width: u32, beats: &BeatCount) -> Tracker {
    let counter_bits = match beats {
        BeatCount::Static(n) => bits_for(*n),
        BeatCount::Dynamic { .. } => {
            // Generated dynamic trackers are 16 bits: wide enough for any
            // transfer the 256-byte-bounded buses can sustain per call,
            // and what a hand designer would also pick.
            bits_for(0xFFFF)
        }
    };
    Tracker {
        for_io: io.name.clone(),
        counter_bits,
        has_storage: matches!(beats, BeatCount::Dynamic { .. }),
        comparator_bits: counter_bits,
    }
    .clamp(bus_width)
}

impl Tracker {
    fn clamp(mut self, bus_width: u32) -> Tracker {
        self.counter_bits = self.counter_bits.min(bus_width);
        self.comparator_bits = self.comparator_bits.min(bus_width);
        self
    }
}

/// Trailing bits of the final beat that carry no payload; logs the §5.3.1
/// "erroneous values" note when non-zero.
fn tail_bits(io: &ValidatedIo, bus_width: u32, notes: &mut Vec<String>, func: &str) -> u32 {
    let shape = transfer_shape(io, bus_width);
    let tail = match (shape, io.bound.static_count()) {
        (TransferShape::Packed { per_beat }, Some(n)) => {
            let rem = n % per_beat as u64;
            if rem == 0 {
                0
            } else {
                (per_beat as u64 - rem) as u32 * io.ty.bits
            }
        }
        (TransferShape::Split { beats_per_elem }, _) => beats_per_elem * bus_width - io.ty.bits,
        _ => 0,
    };
    if tail > 0 {
        notes.push(format!(
            "`{func}`: the final beat of `{}` carries {tail} bit(s) of padding that the \
             hardware can safely ignore",
            io.name
        ));
    }
    tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_spec::parse_and_validate;

    fn design(decls: &str, extra: &str) -> DesignIr {
        let src = format!(
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n{extra}\n{decls}"
        );
        elaborate(&parse_and_validate(&src).unwrap().module)
    }

    #[test]
    fn state_sequence_mirrors_prototype_order() {
        let d = design("long f(int a, short b, char c);", "");
        let s = d.stub("f").unwrap();
        // 3 inputs + calc + output.
        assert_eq!(s.state_count(), 5);
        assert!(matches!(s.states[0], StubState::Input { io: 0, .. }));
        assert!(matches!(s.states[1], StubState::Input { io: 1, .. }));
        assert!(matches!(s.states[2], StubState::Input { io: 2, .. }));
        assert!(matches!(s.states[3], StubState::Calc));
        assert!(matches!(s.states[4], StubState::Output { .. }));
        assert_eq!(s.calc_state_index(), Some(3));
    }

    #[test]
    fn void_gets_pseudo_output_nowait_gets_none() {
        let d = design("void v(int x);\nnowait n(int x);", "");
        let v = d.stub("v").unwrap();
        assert!(matches!(v.states.last(), Some(StubState::PseudoOutput)));
        let n = d.stub("n").unwrap();
        assert!(matches!(n.states.last(), Some(StubState::Calc)));
        assert!(n.nowait);
    }

    #[test]
    fn explicit_arrays_get_trackers_scalars_do_not() {
        let d = design("void f(int*:5 x, int y);", "");
        let s = d.stub("f").unwrap();
        assert_eq!(s.trackers.len(), 1);
        let t = &s.trackers[0];
        assert_eq!(t.for_io, "x");
        assert!(!t.has_storage);
        assert_eq!(t.counter_bits, 3); // counts to 5
    }

    #[test]
    fn implicit_arrays_get_storage_register() {
        let d = design("void f(int x, int*:x y);", "");
        let s = d.stub("f").unwrap();
        assert_eq!(s.trackers.len(), 1);
        assert!(s.trackers[0].has_storage);
        assert!(matches!(
            s.states[1],
            StubState::Input { beats: BeatCount::Dynamic { index_input: 0, .. }, .. }
        ));
    }

    #[test]
    fn split_scalar_counts_two_beats() {
        let d = design("void set_threshold(llong t);", "%user_type llong, unsigned long long, 64");
        let s = d.stub("set_threshold").unwrap();
        assert!(matches!(
            s.states[0],
            StubState::Input { beats: BeatCount::Static(2), ignore_tail_bits: 0, .. }
        ));
    }

    #[test]
    fn packed_partial_tail_noted() {
        let d = design("void f(char*:5+ x);", "");
        let s = d.stub("f").unwrap();
        match s.states[0] {
            StubState::Input { ignore_tail_bits, beats: BeatCount::Static(2), .. } => {
                assert_eq!(ignore_tail_bits, 24); // 3 unused chars in beat 2
            }
            ref other => panic!("{other:?}"),
        }
        assert_eq!(d.notes.len(), 1);
        assert!(d.notes[0].contains("24 bit(s) of padding"), "{}", d.notes[0]);
    }

    #[test]
    fn odd_width_split_tail_noted() {
        // A 40-bit user type over a 32-bit bus: 2 beats, 24 padding bits.
        let d = design("void f(odd x);", "%user_type odd, unsigned long long, 40");
        let s = d.stub("f").unwrap();
        match s.states[0] {
            StubState::Input { ignore_tail_bits, .. } => assert_eq!(ignore_tail_bits, 24),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arbiter_entries_expand_instances_in_id_order() {
        let d = design("void a();\nvoid b():3;\nvoid c();", "");
        assert_eq!(
            d.arbiter_entries(),
            vec![(0, 0, 1), (1, 0, 2), (1, 1, 3), (1, 2, 4), (2, 0, 5)]
        );
        assert_eq!(d.total_instances(), 5);
    }

    #[test]
    fn timer_design_matches_fig_8_3() {
        let src = r#"
            %name hw_timer
            %bus_type plb
            %bus_width 32
            %base_address 0x8000401C
            %user_type llong, unsigned long long, 64
            %user_type ulong, unsigned long, 32
            void disable{};
            void enable{};
            void set_threshold{llong thold};
            llong get_threshold{};
            llong get_snapshot{};
            ulong get_clock{};
            ulong get_status{};
        "#;
        let d = elaborate(&parse_and_validate(src).unwrap().module);
        assert_eq!(d.stubs.len(), 7);
        // set_threshold: one 2-beat input.
        let st = d.stub("set_threshold").unwrap();
        assert!(matches!(st.states[0], StubState::Input { beats: BeatCount::Static(2), .. }));
        // get_threshold: 2-beat output.
        let gt = d.stub("get_threshold").unwrap();
        assert!(matches!(
            gt.states.last(),
            Some(StubState::Output { beats: BeatCount::Static(2), .. })
        ));
        // enable/disable: calc + pseudo output only.
        let en = d.stub("enable").unwrap();
        assert_eq!(en.state_count(), 2);
    }
}
