//! Regenerates Fig 5.1 (interconnections between generated HDL files) and
//! Fig 5.2 (layout of a typical user-logic stub) as text diagrams derived
//! from a real elaborated design — the chapter 8 timer.

use splice_core::elaborate::elaborate;
use splice_core::hdlgen::arbiter_module;
use splice_core::ir::{BeatCount, StubState};
use splice_devices::timer::timer_module;
use splice_hdl::Item;

fn main() {
    let module = timer_module();
    let ir = elaborate(&module);
    let p = &ir.module.params;

    println!("Fig 5.1 — interconnections between generated HDL files\n");
    println!("  Target System Bus ({})", p.bus.kind);
    println!("        │ native protocol");
    println!("  ┌─────▼──────────────┐");
    println!("  │ {}_interface       │  (generated bus interface, §5.1)", p.bus.kind);
    println!("  └─────┬──────────────┘");
    println!("        │ SIS ({} data bits, {}-bit FUNC_ID)", p.bus_width, p.func_id_width);
    println!("  ┌─────▼──────────────┐");
    println!("  │ user_{}        │  (generated bus arbiter, §5.2)", p.device_name);
    println!("  └─────┬──────────────┘");
    let arb = arbiter_module(&ir, "fig5");
    let instances: Vec<&splice_hdl::Instance> = arb
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Instance(inst) => Some(inst),
            _ => None,
        })
        .collect();
    for (k, inst) in instances.iter().enumerate() {
        let tee = if k + 1 == instances.len() { "└──" } else { "├──" };
        println!(
            "        {tee} {} : {}  ({} ports)",
            inst.label,
            inst.module,
            inst.connections.len()
        );
    }

    println!("\nFig 5.2 — layout of a typical user-logic stub (func_set_threshold)\n");
    let (f, stub) =
        ir.functions().find(|(f, _)| f.name == "set_threshold").expect("timer function");
    println!("  SMB: {}-bit state register, {} states", stub.state_bits(), stub.state_count());
    println!("  ICOB state progression:");
    for (i, st) in stub.states.iter().enumerate() {
        match st {
            StubState::Input { io, beats, ignore_tail_bits } => {
                let beats = match beats {
                    BeatCount::Static(n) => format!("{n} beat(s)"),
                    BeatCount::Dynamic { index_input, .. } => {
                        format!("runtime beats from `{}`", f.inputs[*index_input].name)
                    }
                };
                let pad = if *ignore_tail_bits > 0 {
                    format!(", {ignore_tail_bits} padding bits in the last beat")
                } else {
                    String::new()
                };
                println!("    {i}: IN_{:12} — {beats}{pad}", f.inputs[*io].name);
            }
            StubState::Calc => println!("    {i}: CALC_STATE     — user-fillable calculation"),
            StubState::Output { beats, .. } => {
                let beats = match beats {
                    BeatCount::Static(n) => format!("{n} beat(s)"),
                    BeatCount::Dynamic { .. } => "runtime beats".into(),
                };
                println!("    {i}: OUT_RESULT     — {beats}, CALC_DONE held until read");
            }
            StubState::PseudoOutput => {
                println!("    {i}: OUT_SYNC       — pseudo output for the blocking driver")
            }
        }
    }
    println!("  trackers:");
    for st in &stub.states {
        let (Some(io), Some(beats)) = (st.io(f), st.beats()) else { continue };
        let Some(bits) = beats.counter_bits(p.bus_width) else { continue };
        let storage = matches!(beats, BeatCount::Dynamic { .. });
        println!(
            "    `{}`: {bits}-bit counter{}, {bits}-bit comparator",
            io.name,
            if storage { " + bound storage register" } else { "" },
        );
    }
}
