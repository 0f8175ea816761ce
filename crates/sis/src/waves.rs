//! ASCII timing-diagram rendering.
//!
//! Regenerates thesis-style timing diagrams (Figs 4.3–4.8) from simulation
//! traces. One-bit signals render as level waveforms (`_` low / `#` high),
//! multi-bit signals render their hex value in each cycle column, collapsing
//! repeats to `.` so transitions stand out:
//!
//! ```text
//! cycle           |  0|  1|  2|  3|  4|
//! DATA_IN         |  0|beef|  .|  .|  0|
//! DATA_IN_VALID   |___|###|###|###|___|
//! IO_DONE         |___|___|###|___|___|
//! ```

use splice_sim::Trace;
use std::fmt::Write as _;

/// Render every traced signal over the full recorded window.
pub fn render(trace: &Trace) -> String {
    render_window(trace, trace.first_cycle(), trace.first_cycle() + trace.len() as u64)
}

/// Render cycles `[from, to)` of the trace as an ASCII timing diagram.
pub fn render_window(trace: &Trace, from: u64, to: u64) -> String {
    let names: Vec<String> = trace.names().map(str::to_owned).collect();
    let label_w = names.iter().map(String::len).max().unwrap_or(5).max("cycle".len()) + 2;

    // Column width: enough for the widest hex value in the window.
    let mut col_w = 3usize;
    for n in &names {
        for c in from..to {
            if let Some(v) = trace.at(n, c) {
                col_w = col_w.max(format!("{v:x}").len());
            }
        }
        col_w = col_w.max(format!("{}", to.saturating_sub(1)).len());
    }

    let mut out = String::new();
    // Header row.
    let _ = write!(out, "{:label_w$}|", "cycle");
    for c in from..to {
        let _ = write!(out, "{c:>col_w$}|");
    }
    out.push('\n');

    for n in &names {
        let width = trace.width(n).unwrap_or(1);
        let _ = write!(out, "{n:label_w$}|");
        let mut last: Option<u64> = None;
        for c in from..to {
            match trace.at(n, c) {
                Some(v) if width == 1 => {
                    let cell = if v != 0 { "#" } else { "_" };
                    let _ = write!(out, "{}|", cell.repeat(col_w));
                }
                Some(v) => {
                    if last == Some(v) {
                        let _ = write!(out, "{:>col_w$}|", ".");
                    } else {
                        let _ = write!(out, "{:>col_w$}|", format!("{v:x}"));
                    }
                    last = Some(v);
                }
                None => {
                    let _ = write!(out, "{:>col_w$}|", "?");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EchoFunction, SisMaster, SisOp};
    use crate::signals::SisBus;
    use splice_sim::SimulatorBuilder;
    use splice_spec::bus::SyncClass;

    #[test]
    fn renders_levels_and_values() {
        let script = vec![SisOp::Write { func_id: 1, data: 0xBEEF }, SisOp::Read { func_id: 1 }];
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        let midx =
            b.component(Box::new(SisMaster::new(bus, SyncClass::PseudoAsynchronous, script)));
        b.component(Box::new(EchoFunction::new(
            1,
            bus,
            bus.data_out,
            bus.data_out_valid,
            bus.io_done,
            bus.calc_done,
            1,
            0,
            |x| x[0] + 1,
        )));
        let mut sim = b.build();
        let t = sim.attach_trace(&[
            bus.data_in,
            bus.data_in_valid,
            bus.io_enable,
            bus.func_id,
            bus.data_out,
            bus.data_out_valid,
            bus.io_done,
        ]);
        sim.run(10).unwrap();
        let dia = render(sim.trace(t));
        assert!(dia.contains("DATA_IN "), "{dia}");
        assert!(dia.contains("beef"), "{dia}");
        assert!(dia.contains("bef0"), "read response should appear:\n{dia}");
        assert!(dia.contains('#'), "{dia}");
        assert!(dia.contains('_'), "{dia}");
        // One row per traced signal plus the header.
        assert_eq!(dia.lines().count(), 8);
        let _ = midx;
    }

    #[test]
    fn window_rendering_clips() {
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        let mut sim = {
            b.component(Box::new(SisMaster::new(
                bus,
                SyncClass::StrictlySynchronous,
                vec![SisOp::Write { func_id: 1, data: 5 }],
            )));
            b.build()
        };
        let t = sim.attach_trace(&[bus.data_in]);
        sim.run(6).unwrap();
        let dia = render_window(sim.trace(t), 1, 3);
        // Exactly two data columns (cycles 1 and 2).
        let header = dia.lines().next().unwrap();
        assert_eq!(header.matches('|').count(), 3); // label sep + 2 columns
    }

    #[test]
    fn repeated_values_collapse_to_dots() {
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        b.component(Box::new(SisMaster::new(
            bus,
            SyncClass::PseudoAsynchronous,
            vec![SisOp::Write { func_id: 1, data: 7 }, SisOp::Idle(4)],
        )));
        // No slave: the write never completes, so DATA_IN holds 7 forever.
        let mut sim = b.build();
        let t = sim.attach_trace(&[bus.data_in]);
        sim.run(6).unwrap();
        let dia = render(sim.trace(t));
        assert!(dia.contains('.'), "{dia}");
    }
}
