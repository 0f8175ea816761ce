//! Design-level structural timing report: the `splice timing` subcommand.
//!
//! Assembles the per-module [`splice_dataflow::timing`] analysis and the
//! [`splice_resources::netlist`] bill into one report per generated design:
//! a module summary table (signal/register counts, unit-delay depth,
//! busiest net, local logic cost), the named critical paths per module,
//! and the netlist-vs-IR-estimate comparison the SL0604 rule gates on.
//!
//! Rendering is deterministic — no dates, no machine facts — so the text
//! and JSON forms are pinned as goldens under `tests/golden/timing/`.

use splice_core::hdlgen::arbiter_module_name;
use splice_core::DesignIr;
use splice_dataflow::timing::{analyze_timing, EndpointKind};
use splice_dataflow::CompiledDesign;
use splice_hdl::Module;
use splice_obs::json::quote as json_str;
use splice_resources::{logic_cost, netlist_cost, pct_str, Resources};

/// One named critical path.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// The endpoint signal (register or output port).
    pub endpoint: String,
    /// `"register"` or `"output"`.
    pub kind: &'static str,
    /// Unit-delay levels on the deepest arriving path.
    pub depth: u32,
    /// Distinct signals in the endpoint's combinational fan-in cone.
    pub cone: u32,
    /// The path as signal names, source first (endpoint last).
    pub chain: Vec<String>,
}

/// Structural summary of one generated module (analyzed as its own top).
#[derive(Debug, Clone)]
pub struct ModuleTiming {
    /// Module name.
    pub module: String,
    /// Flattened signal count (child-instance signals included).
    pub signals: usize,
    /// Flattened register count.
    pub registers: usize,
    /// Deepest endpoint in unit-delay levels.
    pub max_depth: u32,
    /// Busiest module-local net and its reader count.
    pub max_fanout: Option<(String, u32)>,
    /// Netlist-grade cost of the module-local nodes (child instances are
    /// billed by their own rows).
    pub cost: Resources,
    /// The deepest endpoints, as named chains.
    pub paths: Vec<PathReport>,
}

/// The full structural timing report for a generated design.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Device name from the spec.
    pub device: String,
    /// Bus the design targets.
    pub bus: String,
    /// Per-module summaries, in generation order.
    pub modules: Vec<ModuleTiming>,
    /// Netlist-grade bill of the fully flattened arbiter
    /// (`user_<device>`), every instantiated stub included.
    pub netlist: Resources,
    /// IR-heuristic estimate of the same logic (the bus-interface
    /// adapter item is excluded: it is template text, not a module AST).
    pub estimate: Resources,
}

/// Build the report for an elaborated design. `top_paths` bounds how many
/// critical paths are reported per module.
pub fn timing_report(
    ir: &DesignIr,
    modules: &[Module],
    top_paths: usize,
) -> Result<TimingReport, String> {
    let mut out = Vec::new();
    for m in modules {
        let d = CompiledDesign::compile(modules, &m.name)
            .map_err(|e| format!("cannot flatten `{}`: {e}", m.name))?;
        out.push(module_timing(&d, top_paths));
    }

    let top = arbiter_module_name(&ir.module.params.device_name);
    let flat = CompiledDesign::compile(modules, &top)
        .map_err(|e| format!("cannot flatten `{top}`: {e}"))?;
    let netlist = netlist_cost(&flat).total();
    let estimate = logic_cost(ir);

    Ok(TimingReport {
        device: ir.module.params.device_name.clone(),
        bus: ir.module.params.bus.kind.name().to_owned(),
        modules: out,
        netlist,
        estimate,
    })
}

fn module_timing(d: &CompiledDesign, top_paths: usize) -> ModuleTiming {
    let t = analyze_timing(d);
    let local = |id: usize| !d.signals[id].name.contains('.');

    let max_fanout = (0..d.signals.len())
        .filter(|&id| local(id) && t.fanout[id] > 0)
        .max_by(|&a, &b| t.fanout[a].cmp(&t.fanout[b]).then(b.cmp(&a)))
        .map(|id| (d.signals[id].name.clone(), t.fanout[id]));

    let paths = t
        .endpoints
        .iter()
        .filter(|e| local(e.signal))
        .take(top_paths)
        .map(|e| PathReport {
            endpoint: d.signals[e.signal].name.clone(),
            kind: match e.kind {
                EndpointKind::Register => "register",
                EndpointKind::OutputPort => "output",
            },
            depth: e.depth,
            cone: e.cone,
            chain: t.path(e).iter().map(|&s| d.signals[s].name.clone()).collect(),
        })
        .collect();

    ModuleTiming {
        module: d.name.clone(),
        signals: d.signals.len(),
        registers: d.registers.len(),
        max_depth: t.max_depth,
        max_fanout,
        cost: netlist_cost(d).total_where(|site| !site.contains('.')),
        paths,
    }
}

impl TimingReport {
    /// Render as an aligned text table plus the critical-path chains.
    pub fn render_text(&self) -> String {
        let mut out = format!("timing report for device `{}` ({})\n\n", self.device, self.bus);

        let mut rows: Vec<[String; 6]> = vec![[
            "module".into(),
            "signals".into(),
            "regs".into(),
            "depth".into(),
            "max fanout".into(),
            "cost (local)".into(),
        ]];
        for m in &self.modules {
            let fan = match &m.max_fanout {
                Some((name, n)) => format!("{name} ({n})"),
                None => "-".into(),
            };
            rows.push([
                m.module.clone(),
                m.signals.to_string(),
                m.registers.to_string(),
                m.max_depth.to_string(),
                fan,
                m.cost.to_string(),
            ]);
        }
        let widths: Vec<usize> =
            (0..6).map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0)).collect();
        for row in &rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(cell, w)| format!("{cell:<w$}")).collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }

        out.push_str("\ncritical paths\n");
        for m in &self.modules {
            for p in &m.paths {
                out.push_str(&format!(
                    "  {}  {} levels  [{}] {}  (cone {})\n    {}\n",
                    m.module,
                    p.depth,
                    p.kind,
                    p.endpoint,
                    p.cone,
                    p.chain.join(" -> ")
                ));
            }
        }

        out.push_str(&format!(
            "\nnetlist-grade bill (flattened user_{}): {}\nIR estimate (interface excluded): {}\n\
             netlist vs estimate: {}\n",
            self.device,
            self.netlist,
            self.estimate,
            pct_str(self.netlist.pct_vs(&self.estimate)),
        ));
        out
    }

    /// Render as a JSON document (hand-rolled: the workspace builds with no
    /// external dependencies).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"device\": {},\n", json_str(&self.device)));
        out.push_str(&format!("  \"bus\": {},\n", json_str(&self.bus)));
        out.push_str("  \"modules\": [");
        for (i, m) in self.modules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"module\": {}, ", json_str(&m.module)));
            out.push_str(&format!("\"signals\": {}, ", m.signals));
            out.push_str(&format!("\"registers\": {}, ", m.registers));
            out.push_str(&format!("\"max_depth\": {}, ", m.max_depth));
            match &m.max_fanout {
                Some((name, n)) => out.push_str(&format!(
                    "\"max_fanout\": {{\"signal\": {}, \"readers\": {}}}, ",
                    json_str(name),
                    n
                )),
                None => out.push_str("\"max_fanout\": null, "),
            }
            out.push_str(&format!(
                "\"cost\": {{\"luts\": {}, \"ffs\": {}, \"slices\": {}}}, ",
                m.cost.luts,
                m.cost.ffs,
                m.cost.slices()
            ));
            out.push_str("\"paths\": [");
            for (j, p) in m.paths.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"endpoint\": {}, \"kind\": {}, \"depth\": {}, \"cone\": {}, \
                     \"chain\": [{}]}}",
                    json_str(&p.endpoint),
                    json_str(p.kind),
                    p.depth,
                    p.cone,
                    p.chain.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
                ));
            }
            out.push_str("]}");
        }
        if !self.modules.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"netlist\": {{\"luts\": {}, \"ffs\": {}, \"slices\": {}}},\n",
            self.netlist.luts,
            self.netlist.ffs,
            self.netlist.slices()
        ));
        out.push_str(&format!(
            "  \"estimate\": {{\"luts\": {}, \"ffs\": {}, \"slices\": {}}},\n",
            self.estimate.luts,
            self.estimate.ffs,
            self.estimate.slices()
        ));
        let pct = self.netlist.pct_vs(&self.estimate);
        if pct.is_finite() {
            out.push_str(&format!("  \"netlist_vs_estimate_pct\": {pct:.1}\n"));
        } else {
            out.push_str("  \"netlist_vs_estimate_pct\": null\n");
        }
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineOptions};

    const SPEC: &str = "%device_name timedev\n%bus_type plb\n%bus_width 32\n\
                        %base_address 0x80000000\nint mac(int a, int b);\n";

    fn report(top_paths: usize) -> TimingReport {
        let out = run_pipeline(SPEC, "timedev.spec", &PipelineOptions::default()).unwrap();
        timing_report(&out.ir, &out.modules, top_paths).unwrap()
    }

    #[test]
    fn every_module_reports_a_named_critical_path() {
        let r = report(3);
        assert!(!r.modules.is_empty());
        for m in &r.modules {
            assert!(m.max_depth > 0, "{} has no logic depth", m.module);
            let p = m.paths.first().unwrap_or_else(|| panic!("{} has no paths", m.module));
            assert_eq!(p.depth, m.max_depth);
            assert!(p.chain.len() >= 2, "chain too short: {:?}", p.chain);
            assert_eq!(p.chain.last().unwrap(), &p.endpoint);
        }
    }

    #[test]
    fn text_render_contains_table_and_paths() {
        let t = report(3).render_text();
        assert!(t.contains("timing report for device `timedev` (plb)"), "{t}");
        assert!(t.contains("user_timedev"), "{t}");
        assert!(t.contains("critical paths"), "{t}");
        assert!(t.contains(" -> "), "{t}");
        assert!(t.contains("netlist-grade bill"), "{t}");
    }

    #[test]
    fn json_render_is_structured() {
        let j = report(3).render_json();
        assert!(j.contains("\"device\": \"timedev\""), "{j}");
        assert!(j.contains("\"max_depth\""), "{j}");
        assert!(j.contains("\"chain\": ["), "{j}");
        assert!(j.contains("\"netlist_vs_estimate_pct\""), "{j}");
    }

    #[test]
    fn report_paths_are_bounded() {
        let r = report(1);
        assert!(r.modules.iter().all(|m| m.paths.len() <= 1));
    }
}
