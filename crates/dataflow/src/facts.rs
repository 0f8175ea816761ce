//! Machine-readable dataflow facts: the bridge between the abstract
//! engine and the SL05xx lint rules in `splice-lint`.

use crate::engine::Analysis;
use crate::flat::{CompiledDesign, Kind};

/// What the analysis proved about one signal after reset.
#[derive(Debug, Clone)]
pub struct SignalFacts {
    /// Constant in every reachable post-reset state (what SL0501 reports).
    pub settled: Option<u64>,
    /// Bits that may be an uninitialized X post-reset.
    pub xmask: u64,
    /// Whether the signal has a forward path to an output port. Signals
    /// without one are dead logic.
    pub reaches_output: bool,
}

/// Per-signal facts for one compiled design.
#[derive(Debug, Clone)]
pub struct FactTable {
    /// Facts indexed by signal id (parallel to `CompiledDesign::signals`).
    pub signals: Vec<SignalFacts>,
}

impl FactTable {
    /// Build the table from an analysis of `d`.
    pub fn build(d: &CompiledDesign, a: &Analysis) -> FactTable {
        let reaches = reaches_output(d);
        let signals = (0..d.signals.len())
            .map(|id| SignalFacts {
                // Inputs are free: never constant, whatever the abstract
                // value says about a single eval context.
                settled: match d.signals[id].kind {
                    Kind::Input => None,
                    _ => a.values[id].as_const(),
                },
                xmask: a.values[id].xmask,
                reaches_output: reaches[id],
            })
            .collect();
        FactTable { signals }
    }
}

/// Backward reachability from the output ports: a signal is marked when
/// some chain of node reads leads from it to an output. Register state
/// feedback counts — a register that feeds only itself does *not* reach
/// an output.
fn reaches_output(d: &CompiledDesign) -> Vec<bool> {
    let mut live = vec![false; d.signals.len()];
    for &id in &d.outputs {
        live[id] = true;
    }
    loop {
        let mut changed = false;
        for node in d.clocked.iter().chain(&d.comb_order) {
            if node.writes.iter().any(|&w| live[w]) {
                for &r in &node.reads {
                    if !live[r] {
                        live[r] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze;
    use splice_hdl::{Decl, Expr, Item, Module, Port, Process, Stmt};

    /// `live` feeds the output; `orphan` is computed but feeds nothing;
    /// `loner` is a register that only feeds itself.
    fn module_with_dead_cone() -> Module {
        let mut m = Module::new("dead");
        m.ports = vec![Port::input("CLK", 1), Port::input("RST", 1), Port::output("Y", 4)];
        m.decls = vec![
            Decl::Signal { name: "live".into(), width: 4, init: None },
            Decl::Signal { name: "orphan".into(), width: 4, init: None },
            Decl::Signal { name: "loner".into(), width: 4, init: Some(0) },
        ];
        m.items.push(Item::Assign { lhs: "live".into(), rhs: Expr::lit(3, 4) });
        m.items.push(Item::Assign {
            lhs: "orphan".into(),
            rhs: Expr::sig("live").add(Expr::lit(1, 4)),
        });
        m.items.push(Item::Process(Process {
            label: "spin".into(),
            clocked: true,
            body: vec![Stmt::assign("loner", Expr::sig("loner").add(Expr::lit(1, 4)))],
        }));
        m.items.push(Item::Assign { lhs: "Y".into(), rhs: Expr::sig("live") });
        m
    }

    #[test]
    fn facts_mark_constants_and_dead_cones() {
        let m = module_with_dead_cone();
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "dead").unwrap();
        let facts = FactTable::build(&d, &analyze(&d));
        let id = |n: &str| d.signal_id(n).unwrap();
        assert_eq!(facts.signals[id("live")].settled, Some(3));
        assert_eq!(facts.signals[id("orphan")].settled, Some(4));
        assert_eq!(facts.signals[id("Y")].settled, Some(3));
        assert!(facts.signals[id("live")].reaches_output);
        assert!(!facts.signals[id("orphan")].reaches_output, "feeds nothing");
        assert!(!facts.signals[id("loner")].reaches_output, "self-feedback only");
        assert!(facts.signals[id("Y")].reaches_output);
    }
}
