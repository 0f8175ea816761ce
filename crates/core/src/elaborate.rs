//! Elaboration: [`ModuleSpec`] → [`DesignIr`].
//!
//! Chapter 5's generation pipeline, stage 3: for every declaration build
//! the ICOB state sequence ("the input stages within a function mimic the
//! order and structure of those defined within the associated software
//! prototype"), with the beat count and the trailing padding bits of every
//! transfer (§5.3.1).

use crate::ir::{BeatCount, DesignIr, FunctionStub, StubState};
use splice_driver::lower::{beats_for, transfer_shape, TransferShape};
use splice_spec::validate::{IoBound, ModuleSpec, ValidatedFunction, ValidatedIo};

/// Elaborate a validated module into the design IR.
pub fn elaborate(module: &ModuleSpec) -> DesignIr {
    let bus_width = module.params.bus_width;
    let stubs = module.functions.iter().map(|f| elaborate_function(f, bus_width)).collect();
    DesignIr { module: module.clone(), stubs }
}

fn elaborate_function(f: &ValidatedFunction, bus_width: u32) -> FunctionStub {
    let mut states = Vec::with_capacity(f.inputs.len() + 2);

    for (i, io) in f.inputs.iter().enumerate() {
        let beats = beat_count(io, bus_width);
        states.push(StubState::Input { io: i, beats, ignore_tail_bits: tail_bits(io, bus_width) });
    }

    // "A single calculation stage is initially left blank for the end-user
    // to fill in" (§5.3.1) — present for every function.
    states.push(StubState::Calc);

    match (&f.output, f.nowait) {
        (Some(out), _) => {
            let beats = beat_count(out, bus_width);
            states.push(StubState::Output { beats, ignore_tail_bits: tail_bits(out, bus_width) });
        }
        (None, false) => states.push(StubState::PseudoOutput),
        (None, true) => { /* nowait: control never returns through the bus */ }
    }

    FunctionStub { states }
}

fn beat_count(io: &ValidatedIo, bus_width: u32) -> BeatCount {
    match io.bound {
        IoBound::Scalar => BeatCount::Static(beats_for(io, bus_width, 1)),
        IoBound::Explicit(n) => BeatCount::Static(beats_for(io, bus_width, n)),
        IoBound::Implicit { index_param, .. } => {
            BeatCount::Dynamic { index_input: index_param, shape: transfer_shape(io, bus_width) }
        }
    }
}

/// Trailing bits of the final beat that carry no payload (§5.3.1's
/// "erroneous values"; [`DesignIr::notes`] reports them).
fn tail_bits(io: &ValidatedIo, bus_width: u32) -> u32 {
    match (transfer_shape(io, bus_width), io.bound.static_count()) {
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
    }
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
        let s = &d.stubs[0];
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
        let v = &d.stubs[0];
        assert!(matches!(v.states.last(), Some(StubState::PseudoOutput)));
        assert!(!v.fires_irq());
        let n = &d.stubs[1];
        assert!(matches!(n.states.last(), Some(StubState::Calc)));
        assert!(n.fires_irq());
    }

    #[test]
    fn explicit_arrays_get_trackers_scalars_do_not() {
        let d = design("void f(int*:5 x, int y);", "");
        let counters: Vec<_> = d.stubs[0]
            .states
            .iter()
            .map(|st| st.beats().and_then(|b| b.counter_bits(32)))
            .collect();
        // x counts to 5; y, Calc and the pseudo output count nothing.
        assert_eq!(counters, vec![Some(3), None, None, None]);
    }

    #[test]
    fn implicit_arrays_get_storage_register() {
        let d = design("void f(int x, int*:x y);", "");
        let beats = d.stubs[0].states[1].beats();
        assert!(matches!(beats, Some(BeatCount::Dynamic { index_input: 0, .. })), "{beats:?}");
        assert_eq!(beats.unwrap().counter_bits(32), Some(16));
    }

    #[test]
    fn split_scalar_counts_two_beats() {
        let d = design("void set_threshold(llong t);", "%user_type llong, unsigned long long, 64");
        let s = &d.stubs[0];
        assert!(matches!(
            s.states[0],
            StubState::Input { beats: BeatCount::Static(2), ignore_tail_bits: 0, .. }
        ));
    }

    #[test]
    fn packed_partial_tail_noted() {
        let d = design("void f(char*:5+ x);", "");
        let s = &d.stubs[0];
        match s.states[0] {
            StubState::Input { ignore_tail_bits, beats: BeatCount::Static(2), .. } => {
                assert_eq!(ignore_tail_bits, 24); // 3 unused chars in beat 2
            }
            ref other => panic!("{other:?}"),
        }
        let notes = d.notes();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("24 bit(s) of padding"), "{}", notes[0]);
    }

    #[test]
    fn odd_width_split_tail_noted() {
        // A 40-bit user type over a 32-bit bus: 2 beats, 24 padding bits.
        let d = design("void f(odd x);", "%user_type odd, unsigned long long, 40");
        let s = &d.stubs[0];
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
        assert_eq!(d.module.total_instances(), 5);
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
        let st = &d.stubs[2];
        assert!(matches!(st.states[0], StubState::Input { beats: BeatCount::Static(2), .. }));
        // get_threshold: 2-beat output.
        let gt = &d.stubs[3];
        assert!(matches!(
            gt.states.last(),
            Some(StubState::Output { beats: BeatCount::Static(2), .. })
        ));
        // enable/disable: calc + pseudo output only.
        let en = &d.stubs[1];
        assert_eq!(en.state_count(), 2);
    }
}
