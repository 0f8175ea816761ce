//! # splice-check — model checking of generated designs
//!
//! Where `splice-lint` inspects the *structure* of the generated artifacts,
//! this crate verifies their *behaviour*: every generated HDL module is
//! flattened into an explicit transition relation over a ternary 0/1/X
//! domain ([`CompiledDesign`]), composed with a model of the SIS master
//! ([`mod@env`]) or a fully nondeterministic environment ([`explore`]), and
//! exhaustively explored from reset. The properties checked:
//!
//! * **SL0401** — after a complete driver round the FSM returns to a state
//!   from which a second identical round behaves identically.
//! * **SL0402** — every SIS request is acknowledged within a bound, and no
//!   acknowledge line rises without a transaction in flight.
//! * **SL0403** — no two function instances drive a shared return line in
//!   the same cycle (arbiter composition).
//! * **SL0404** — no register or output carries X after reset. `DATA_OUT`
//!   is an output of every checked module, so this covers it in every
//!   cycle, `DATA_OUT_VALID` cycles included.
//! * **SL0406** — (warning) the state budget ran out before the reachable
//!   set closed.
//!
//! Both environments report a violation as a [`Witness`], and every module
//! is explored exactly as generated. Every violation comes with a concrete
//! input trace, which is replayed in the two-state domain ([`replay`]) as
//! the [`Counterexample`] is built; it is marked confirmed only if the
//! violation reproduces there.
//!
//! A second, orthogonal pass ([`driver_check`]) cross-checks the generated
//! C driver text against the IR and the HDL address decode (SL0407–SL0410).

pub mod driver_check;
pub mod env;
pub mod explore;
pub mod replay;

pub use driver_check::cross_check;
pub use splice_dataflow::{CompileError, CompiledDesign};

use env::EnvPins;
use explore::{BfsOutcome, ExploreSpec, MutexGroup, StepMemo};
use splice_core::hdlgen::{arbiter_module_name, instance_net, stub_module_name};
use splice_core::{BeatCount, DesignIr, FunctionStub};
use splice_dataflow::TWord;
use splice_hdl::Module;
use splice_lint::{Diagnostic, Layer, LintReport, Location};
use splice_spec::validate::ValidatedFunction;
use std::fmt;

/// How hard to check.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Steps a pseudo-async handshake or a status poll may take before the
    /// run is declared stalled.
    pub response_bound: u32,
    /// Distinct-state budget for each exhaustive exploration.
    pub max_states: usize,
    /// Exploration horizon in steps past reset.
    pub max_depth: u32,
    /// Polled at state-expansion and module boundaries: when it returns
    /// true (the CLI wires it to the SIGINT flag in
    /// `splice_obs::interrupt`), exploration stops where it is, the
    /// outcome is marked interrupted, and the partial report is still
    /// rendered instead of the process dying mid-write.
    pub stop: Option<fn() -> bool>,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions { response_bound: 16, max_states: 50_000, max_depth: 64, stop: None }
    }
}

/// A violation, as the environment that found it reports it: what the
/// counterexample trace demonstrates, in checkable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// `signal` stayed low from `from_step` for `bound` + 1 steps.
    Stall {
        /// The unresponsive line.
        signal: String,
        /// Step the request was issued at.
        from_step: usize,
        /// The expired bound.
        bound: u32,
    },
    /// `signal` was high at `step` with no transaction in flight.
    UnsolicitedAck {
        /// The offending line.
        signal: String,
        /// Trace row index.
        step: usize,
    },
    /// Two per-instance copies of the shared `line` were high at once.
    MutexOverlap {
        /// The shared line (`IO_DONE` or `DATA_OUT_VALID`).
        line: String,
        /// First net.
        a: String,
        /// Second net.
        b: String,
        /// Trace row index.
        step: usize,
    },
    /// `signal` carried X at `step`.
    UnknownValue {
        /// Flattened signal name.
        signal: String,
        /// Trace row index.
        step: usize,
    },
    /// Register state at `second_end` differs from `first_end`.
    RoundMismatch {
        /// Round-1 snapshot step.
        first_end: usize,
        /// Round-2 snapshot step.
        second_end: usize,
    },
}

impl Witness {
    /// The X-safety check of both environments on one settled step: the
    /// first register of `state`, then the first output of `obs`, that
    /// carries X at trace row `step`.
    fn unknown(d: &CompiledDesign, state: &[TWord], obs: &[TWord], step: usize) -> Option<Witness> {
        let register =
            d.registers.iter().zip(state).find(|(_, v)| !v.is_known()).map(|(&id, _)| id);
        let id = register.or_else(|| d.outputs.iter().copied().find(|&id| !obs[id].is_known()))?;
        Some(Witness::UnknownValue { signal: d.signals[id].name.clone(), step })
    }

    /// The rule this witness violates and its message. A driver script
    /// (`scripted`) sees an X at one step of its run, the free exploration
    /// in a reachable state.
    fn diagnosis(&self, scripted: bool) -> (&'static str, String) {
        match self {
            Witness::Stall { signal, from_step, bound } => (
                "SL0402",
                format!(
                    "`{signal}` did not respond within {bound} step(s) of the request at step \
                     {from_step}"
                ),
            ),
            Witness::UnsolicitedAck { signal, step } => (
                "SL0402",
                format!("`{signal}` was asserted at step {step} with no transaction in flight"),
            ),
            Witness::MutexOverlap { line, a, b, .. } => (
                "SL0403",
                format!("`{a}` and `{b}` drive the shared `{line}` line in the same cycle"),
            ),
            Witness::UnknownValue { signal, step } if scripted => {
                ("SL0404", format!("`{signal}` carried X at step {step}"))
            }
            Witness::UnknownValue { signal, step } => {
                ("SL0404", format!("`{signal}` carries X in a reachable state (step {step})"))
            }
            Witness::RoundMismatch { first_end, second_end } => (
                "SL0401",
                format!(
                    "register state after round 2 (step {second_end}) differs from the state after \
                     round 1 (step {first_end}): the FSM is not reusable"
                ),
            ),
        }
    }
}

/// A concrete stimulus reproducing one violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Module the trace drives.
    pub module: String,
    /// The violated rule.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Input port names, in trace-column order.
    pub inputs: Vec<String>,
    /// One row of input values per step (reset rows included).
    pub trace: Vec<Vec<u64>>,
    /// The checkable claim the trace demonstrates.
    pub witness: Witness,
    /// Whether the violation reproduced on two-state replay.
    pub confirmed: bool,
}

impl Counterexample {
    /// Render the trace as an aligned step table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "counterexample: {} in `{}` — {}{}\n",
            self.code,
            self.module,
            self.message,
            if self.confirmed {
                " (reproduced in simulation)"
            } else {
                " (NOT reproduced in simulation)"
            }
        );
        let widths: Vec<usize> = self.inputs.iter().map(|n| n.len().max(4)).collect();
        out.push_str("  step");
        for (name, w) in self.inputs.iter().zip(&widths) {
            out.push_str(&format!("  {name:>w$}"));
        }
        out.push('\n');
        for (i, row) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {i:>4}"));
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!("  {v:>w$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Reachability statistics for one explored module (pinned by tests to
/// catch nondeterminism in the checker itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleStats {
    /// Module name.
    pub module: String,
    /// Distinct reachable register states discovered.
    pub reachable: usize,
    /// True when the reachable set closed within every bound.
    pub complete: bool,
    /// Peak BFS frontier size across this module's exploration runs.
    pub frontier_peak: usize,
}

/// Everything one checking run produced.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Structured findings (SL04xx).
    pub report: LintReport,
    /// One concrete trace per behavioural finding.
    pub counterexamples: Vec<Counterexample>,
    /// Per-module exploration statistics.
    pub stats: Vec<ModuleStats>,
}

impl CheckOutcome {
    /// Report `witness`, found in `d` by the script run or exploration at
    /// `location`, with the counterexample `trace`, confirmed by two-state
    /// replay.
    fn flag(
        &mut self,
        d: &CompiledDesign,
        location: Location,
        witness: Witness,
        trace: Vec<Vec<u64>>,
        scripted: bool,
    ) {
        let (code, message) = witness.diagnosis(scripted);
        self.report.push(Diagnostic::error(code, Layer::Hdl, location, message.clone()));
        let mut cex = Counterexample {
            module: d.name.clone(),
            code,
            message,
            inputs: d.inputs.iter().map(|&id| d.signals[id].name.clone()).collect(),
            trace,
            witness,
            confirmed: false,
        };
        cex.confirmed = replay::confirm(d, &cex);
        self.counterexamples.push(cex);
    }

    /// Render findings, counterexamples and statistics as text.
    pub fn render_text(&self) -> String {
        let mut out = self.report.render_text();
        for cex in &self.counterexamples {
            out.push('\n');
            out.push_str(&cex.render_text());
        }
        if !self.stats.is_empty() {
            out.push('\n');
            for s in &self.stats {
                out.push_str(&format!(
                    "explored `{}`: {} reachable state(s), frontier peak {}{}\n",
                    s.module,
                    s.reachable,
                    s.frontier_peak,
                    if s.complete { "" } else { " (bounded)" }
                ));
            }
        }
        out
    }

    /// Render the whole outcome as one JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n\"report\": ");
        out.push_str(self.report.render_json().trim_end());
        out.push_str(",\n\"counterexamples\": [");
        for (i, cex) in self.counterexamples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"module\": {}, \"code\": {}, \"message\": {}, \
                 \"confirmed\": {}, \"inputs\": [{}], \"trace\": [{}]}}",
                splice_obs::json::quote(&cex.module),
                splice_obs::json::quote(cex.code),
                splice_obs::json::quote(&cex.message),
                cex.confirmed,
                cex.inputs.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", "),
                cex.trace
                    .iter()
                    .map(|row| {
                        format!(
                            "[{}]",
                            row.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        }
        out.push_str("\n],\n\"stats\": [");
        for (i, s) in self.stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"module\": \"{}\", \"reachable\": {}, \"complete\": {}, \
                 \"frontier_peak\": {}}}",
                s.module, s.reachable, s.complete, s.frontier_peak
            ));
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Why a checking run could not start (defects it *finds* are reported as
/// diagnostics, not errors).
#[derive(Debug)]
pub enum CheckError {
    /// A generated module could not be compiled to a transition relation.
    /// Lint reports such a module as SL0500, and the pipeline checks only
    /// designs that lint accepts.
    Compile(CompileError),
    /// A module is missing part of the ten-signal contract.
    Pins(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Compile(e) => write!(f, "cannot compile generated HDL: {e}"),
            CheckError::Pins(e) => write!(f, "SIS contract incomplete: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// The free exploration [`check_modules`] runs on the stub of `f` compiled
/// alone: the environment drives the stub's own FUNC_ID, the status id and
/// one foreign id, and two data values.
pub fn stub_exploration(ir: &DesignIr, f: &ValidatedFunction, opts: &CheckOptions) -> ExploreSpec {
    let id_mask = (1u64 << ir.func_id_width().min(63)) - 1;
    let my_id = f.first_func_id as u64;
    let mut func_ids = vec![my_id, env::STATUS_ID, (my_id + 1) & id_mask];
    func_ids.sort_unstable();
    func_ids.dedup();
    ExploreSpec {
        func_ids,
        data_domain: vec![0, 1],
        max_states: opts.max_states,
        max_depth: opts.max_depth,
        stop: opts.stop,
    }
}

/// The free explorations [`check_modules`] runs on the composed arbiter `d`
/// of `ir`: the mutex groups of the shared return lines, and one
/// exploration per instance pair.
///
/// The full product over every instance is exponential in the function
/// count, but the mutex property is *pairwise*: any k-way overlap on a
/// shared line contains a 2-way overlap. So the composition is explored
/// once per instance pair with only that pair's ids (plus the status id)
/// enabled, which is exhaustive for SL0403. Every other stub is never
/// addressed: one with inputs stays in its reset state, and one without
/// runs its calculation once and then waits in its output state. Those
/// stubs move in lockstep, so the product still collapses. X-safety of
/// the arbiter's own registers is checked in every run.
pub fn arbiter_explorations(
    ir: &DesignIr,
    d: &CompiledDesign,
    opts: &CheckOptions,
) -> (Vec<MutexGroup>, Vec<ExploreSpec>) {
    let mut groups = Vec::new();
    for line in ["IO_DONE", "DATA_OUT_VALID"] {
        let members: Vec<usize> = ir
            .arbiter_entries()
            .iter()
            .filter_map(|&(si, _, id)| {
                d.signal_id(&instance_net(id, &ir.module.functions[si].name, line))
            })
            .collect();
        if members.len() >= 2 {
            groups.push(MutexGroup { line: line.to_owned(), members });
        }
    }
    let ids: Vec<u64> = ir.arbiter_entries().iter().map(|&(_, _, id)| id as u64).collect();
    let mut id_sets: Vec<Vec<u64>> = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            id_sets.push(vec![env::STATUS_ID, a, b]);
        }
    }
    if id_sets.is_empty() {
        // Single-instance design: one run with everything enabled.
        let mut all = ids;
        all.push(env::STATUS_ID);
        all.sort_unstable();
        all.dedup();
        id_sets.push(all);
    }
    let specs = id_sets
        .into_iter()
        .map(|func_ids| ExploreSpec {
            func_ids,
            data_domain: vec![0],
            max_states: opts.max_states,
            max_depth: opts.max_depth,
            stop: opts.stop,
        })
        .collect();
    (groups, specs)
}

/// Flatten `top` and resolve its SIS pins. Lint reports a module that
/// does not flatten as SL0500, and the pipeline checks only designs that
/// lint accepts, so here it is an error.
fn compile(modules: &[Module], top: &str) -> Result<(CompiledDesign, EnvPins), CheckError> {
    let d = CompiledDesign::compile(modules, top).map_err(CheckError::Compile)?;
    let pins = env::resolve_pins(&d).map_err(CheckError::Pins)?;
    Ok((d, pins))
}

/// Directed liveness: run the driver's own transaction scripts for `f`'s
/// `stub` on its module `d`, across pacings (and element counts for
/// runtime-bounded transfers), and report the first violation.
fn run_scripts(
    ir: &DesignIr,
    f: &ValidatedFunction,
    stub: &FunctionStub,
    d: &CompiledDesign,
    pins: &EnvPins,
    opts: &CheckOptions,
    out: &mut CheckOutcome,
) {
    let dynamic = stub.states.iter().any(|s| matches!(s.beats(), Some(BeatCount::Dynamic { .. })));
    let bounds: &[u64] = if dynamic { &[1, 2] } else { &[1] };
    for &bound in bounds {
        for pacing in 0..=2u32 {
            let sync = ir.module.params.bus.sync;
            let ops = env::stub_script(stub, sync, bound, 2);
            let cfg = env::ScriptConfig { sync, response_bound: opts.response_bound, pacing };
            let run = env::run_script(d, pins, f.first_func_id as u64, &ops, cfg);
            if let Some(witness) = run.violation {
                let location =
                    Location::path(format!("{} (pacing {pacing}, bound {bound})", d.name));
                out.flag(d, location, witness, run.trace, true);
                // One counterexample per stub: further pacings would
                // near-certainly rediscover the same defect.
                return;
            }
        }
    }
}

/// Exhaustive safety under a free environment: run the explorations
/// `specs` of `d` with one step memo under one `check.explore` span, and
/// report them as one module. A stub has one exploration, an arbiter one
/// per instance pair; the first violation or interrupt ends them. Returns
/// whether the search was interrupted.
fn explore_module(
    d: &CompiledDesign,
    pins: &EnvPins,
    groups: &[MutexGroup],
    specs: &[ExploreSpec],
    opts: &CheckOptions,
    out: &mut CheckOutcome,
) -> bool {
    let span = splice_obs::trace::span("check.explore");
    splice_obs::trace::attr("module", d.name.as_str());
    splice_obs::trace::attr("comb_nodes", d.comb_order.len() as u64);
    splice_obs::trace::attr("expr_nodes", d.expr_node_count() as u64);
    // One memo for every run: each instance's transitions carry over from
    // one pair run to the next.
    let mut memo = StepMemo::new(d);
    let mut runs: Vec<BfsOutcome> = Vec::new();
    for spec in specs {
        let run = explore::explore(d, pins, spec, groups, &mut memo);
        let stop = run.violation.is_some() || run.interrupted;
        runs.push(run);
        if stop {
            break;
        }
    }
    // Reachable counts sum over an arbiter's pair runs (their state sets
    // overlap on the common idle background, so this is a determinism
    // metric, not a distinct-state count).
    let reachable: usize = runs.iter().map(|r| r.reachable).sum();
    let frontier_peak = runs.iter().map(|r| r.frontier_peak).max().unwrap_or(0);
    splice_obs::trace::attr("reachable", reachable as u64);
    splice_obs::trace::attr("frontier_peak", frontier_peak as u64);
    splice_obs::trace::attr("edges", memo.edges());
    splice_obs::trace::attr("stepped", memo.stepped());
    splice_obs::trace::attr("settled", memo.settled());
    drop(span);

    let here = || Location::path(d.name.as_str());
    if let Some((witness, trace)) = runs.last_mut().and_then(|r| r.violation.take()) {
        out.flag(d, here(), witness, trace, false);
    }
    let interrupted = runs.iter().any(|r| r.interrupted);
    if runs.iter().any(|r| r.budget_exhausted) {
        out.report.push(Diagnostic::warning(
            "SL0406",
            Layer::Hdl,
            here(),
            format!(
                "state budget exhausted after {reachable} state(s) (max_states = {}); safety was \
                 only verified over the explored prefix",
                opts.max_states
            ),
        ));
    }
    if interrupted {
        out.report.push(Diagnostic::warning(
            "SL0406",
            Layer::Hdl,
            here(),
            format!(
                "exploration interrupted (SIGINT) after {reachable} state(s); safety was only \
                 verified over the explored prefix"
            ),
        ));
    }
    out.stats.push(ModuleStats {
        module: d.name.clone(),
        reachable,
        complete: runs.iter().all(|r| r.complete),
        frontier_peak,
    });
    interrupted
}

/// Model-check the generated HDL of `ir`. `modules` must be the module set
/// `design_modules` emitted for this IR, and lint must accept it: a module
/// that does not flatten is a [`CheckError::Compile`].
pub fn check_modules(
    ir: &DesignIr,
    modules: &[Module],
    opts: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    let mut out =
        CheckOutcome { report: LintReport::new(), counterexamples: Vec::new(), stats: Vec::new() };
    for (f, stub) in ir.functions() {
        let (d, pins) = compile(modules, &stub_module_name(&f.name))?;
        run_scripts(ir, f, stub, &d, &pins, opts, &mut out);
        if explore_module(&d, &pins, &[], &[stub_exploration(ir, f, opts)], opts, &mut out) {
            // SIGINT: skip the remaining per-stub explorations (each would
            // observe the same flag immediately anyway) and fall through so
            // the partial report still renders.
            break;
        }
    }

    // Composed design: the arbiter with every instance, checking that the
    // shared return lines are driven by at most one function per cycle.
    let arb_name = arbiter_module_name(&ir.module.params.device_name);
    if modules.iter().any(|m| m.name == arb_name) {
        let (d, pins) = compile(modules, &arb_name)?;
        let (groups, specs) = arbiter_explorations(ir, &d, opts);
        explore_module(&d, &pins, &groups, &specs, opts, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str =
        "%bus_type fcb\n%bus_width 32\n%device_name check_dev\nint mac(int a, int b);\n";

    #[test]
    fn injected_id_macro_mismatch_is_flagged() {
        let v = splice_spec::parse_and_validate(CLEAN).expect("valid");
        let ir = splice_core::elaborate(&v.module);
        let modules = splice_core::hdlgen::design_modules(&ir, "check").expect("generates");
        let p = &ir.module.params;
        let lib_h = splice_driver::macros::macro_header_with_irq(
            &p.bus,
            p.bus_width,
            p.base_address,
            p.irq,
        );
        let driver_c = splice_driver::cgen::driver_source(&ir.module)
            .replace("#define MAC_ID 1", "#define MAC_ID 7");
        let mut report = LintReport::new();
        cross_check(&ir, &modules, &lib_h, &driver_c, &mut report);
        assert!(report.has("SL0407"), "{}", report.render_text());
    }
}
