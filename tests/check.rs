//! Integration tests of the `splice-check` model checker.
//!
//! Seven claims are pinned here:
//!
//! 1. **Self-application**: every bundled example specification verifies
//!    clean — no SL04xx findings, no counterexamples — under the default
//!    budgets. The generated HDL AST is target-independent, so a clean
//!    verdict covers both the VHDL and Verilog renderings.
//! 2. **Determinism**: the reachable-state count of every exploration is
//!    pinned exactly. A checker change that perturbs state encoding or
//!    exploration order fails loudly here.
//! 3. **Detection**: deliberately corrupted designs (an uninitialized
//!    state register, a dead acknowledge line, a disabled per-instance
//!    FUNC_ID remap, a double acknowledge, a register that differs between
//!    round ends, an unknown DATA_OUT) each produce the right SL04xx
//!    finding with a counterexample that **reproduces on two-state
//!    replay**. Two of them pin every counterexample's trace and witness
//!    exactly, so a change of script or exploration order fails here too.
//!    A module that does not flatten, or whose DATA_OUT is not an output
//!    port, is refused.
//! 4. **Driver agreement**: for every bus backend the generated C driver
//!    cross-checks clean against the generated HDL, and injected
//!    driver/hardware mismatches are flagged.
//! 5. **X audit on generated HDL**: the two fill universes that replay
//!    runs in agree with the ternary explorer wherever it knows a bit, and
//!    with each other after reset, on every module the examples generate,
//!    not only on random designs.
//! 6. **Exact reuse**: an exploration returns the same outcome, trace
//!    included, whether its step memo is empty, fresh, or shared with
//!    every other pair run of its arbiter, and the same outcome as a
//!    reference search that steps and settles every edge. The work the
//!    reuse saves is pinned as edge, step and settle counts per example.
//! 7. **Golden reports**: the whole text and JSON check report of every
//!    example and every corrupted design is pinned byte for byte under
//!    `tests/golden/check/`.

use splice::pipeline::{run_pipeline, PipelineError, PipelineOptions};
use splice_check::explore::{explore, BfsOutcome, ExploreSpec, MutexGroup, StepMemo};
use splice_check::{
    arbiter_explorations, check_modules, cross_check, env, stub_exploration, CheckError,
    CheckOptions, CheckOutcome, CompileError, Witness,
};
use splice_core::elaborate::elaborate;
use splice_core::hdlgen::design_modules;
use splice_core::DesignIr;
use splice_dataflow::engine::reset_slot;
use splice_dataflow::tv::mask;
use splice_dataflow::{
    two_state_eval, two_state_initial, two_state_step, CompiledDesign, Interp, TWord,
};
use splice_hdl::ast::{Decl, Item, Stmt};
use splice_hdl::{Expr, Module, Port};
use splice_lint::LintReport;
use splice_testutil::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn example_spec(stem: &str) -> String {
    std::fs::read_to_string(repo_path(&format!("examples/specs/{stem}.splice")))
        .expect("example spec exists")
}

/// The model-check outcome of a pipeline run over `spec` under the
/// default budgets.
fn checked(spec: &str) -> CheckOutcome {
    let opts =
        PipelineOptions { check: Some(CheckOptions::default()), ..PipelineOptions::default() };
    let out = run_pipeline(spec, "check-test.splice", &opts).expect("spec validates");
    out.check.expect("lint passed, so the checker ran")
}

fn generated(spec: &str) -> (DesignIr, Vec<Module>) {
    let validated = splice_spec::parse_and_validate(spec).expect("spec validates");
    let ir = elaborate(&validated.module);
    let modules = design_modules(&ir, "check-test").expect("example generates");
    (ir, modules)
}

fn module_mut<'a>(modules: &'a mut [Module], name: &str) -> &'a mut Module {
    modules.iter_mut().find(|m| m.name == name).expect("module exists")
}

/// Apply `edit` to every statement list in `module`'s processes, each
/// list before the lists nested in it.
fn edit_bodies(module: &mut Module, edit: &mut impl FnMut(&mut Vec<Stmt>)) {
    fn walk(stmts: &mut Vec<Stmt>, edit: &mut impl FnMut(&mut Vec<Stmt>)) {
        edit(stmts);
        for s in stmts {
            match s {
                Stmt::If { then, elifs, els, .. } => {
                    walk(then, edit);
                    for (_, body) in elifs {
                        walk(body, edit);
                    }
                    if let Some(body) = els {
                        walk(body, edit);
                    }
                }
                Stmt::Case { arms, default, .. } => {
                    for (_, body) in arms {
                        walk(body, edit);
                    }
                    if let Some(body) = default {
                        walk(body, edit);
                    }
                }
                _ => {}
            }
        }
    }
    for item in &mut module.items {
        if let Item::Process(p) = item {
            walk(&mut p.body, edit);
        }
    }
}

/// Replace the right-hand side of every assignment to `lhs` — in
/// continuous assigns and recursively inside process bodies.
fn rewrite_assigns(module: &mut Module, lhs: &str, rhs: &Expr) -> usize {
    let mut hits = 0;
    for item in &mut module.items {
        if let Item::Assign { lhs: l, rhs: r } = item {
            if l == lhs {
                *r = rhs.clone();
                hits += 1;
            }
        }
    }
    edit_bodies(module, &mut |stmts| {
        for s in stmts {
            if let Stmt::Assign { lhs: l, rhs: r } = s {
                if l == lhs {
                    *r = rhs.clone();
                    hits += 1;
                }
            }
        }
    });
    hits
}

fn driver_texts(ir: &DesignIr) -> (String, String) {
    let p = &ir.module.params;
    let lib_h =
        splice_driver::macros::macro_header_with_irq(&p.bus, p.bus_width, p.base_address, p.irq);
    let driver_c = splice_driver::cgen::driver_source(&ir.module);
    (lib_h, driver_c)
}

// ---------------------------------------------------------------------------
// Self-application + pinned determinism.
// ---------------------------------------------------------------------------

/// Every example spec verifies clean, and every reachable-state count is
/// pinned. The composed `user_<device>` count is the sum over the
/// pairwise instance explorations (see `docs/model-checking.md`).
#[test]
fn every_example_spec_verifies_clean_with_pinned_state_counts() {
    type Pinned = (&'static str, &'static [(&'static str, usize, bool)]);
    let expected: &[Pinned] = &[
        (
            "apb_sensor",
            &[
                ("func_sample", 13, true),
                ("func_reset_all", 9, true),
                ("user_apb_sensor", 1094, true),
            ],
        ),
        (
            "dma_stream",
            &[
                ("func_push_block", 84, true),
                ("func_pop_word", 9, true),
                ("user_dma_stream", 820, true),
            ],
        ),
        (
            "fir_filter",
            &[("func_set_taps", 28, true), ("func_filter", 143, false), ("user_fir", 2711, false)],
        ),
        (
            "hw_timer",
            &[
                ("func_disable", 9, true),
                ("func_enable", 9, true),
                ("func_set_threshold", 24, true),
                ("func_get_threshold", 16, true),
                ("func_get_snapshot", 16, true),
                ("func_get_clock", 9, true),
                ("func_get_status", 9, true),
                ("user_hw_timer", 2564, true),
            ],
        ),
        (
            "mac",
            &[
                ("func_mac", 16, true),
                ("func_mac_clear", 9, true),
                ("func_preload", 5, true),
                ("user_mac_unit", 198, true),
            ],
        ),
    ];
    for (stem, pinned) in expected {
        let out = checked(&example_spec(stem));
        assert!(out.report.is_clean(), "{stem}:\n{}", out.render_text());
        assert!(out.counterexamples.is_empty(), "{stem} produced counterexamples");
        let got: Vec<(&str, usize, bool)> =
            out.stats.iter().map(|s| (s.module.as_str(), s.reachable, s.complete)).collect();
        assert_eq!(got.as_slice(), *pinned, "{stem}: reachable-state counts drifted");
    }
}

#[test]
fn checking_an_example_is_deterministic() {
    let spec = example_spec("hw_timer");
    let a = checked(&spec);
    let b = checked(&spec);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.report, b.report);
}

const CLEAN: &str =
    "%bus_type fcb\n%bus_width 32\n%device_name check_dev\nint mac(int a, int b);\n";

#[test]
fn clean_spec_checks_clean_end_to_end() {
    let out = checked(CLEAN);
    assert!(out.report.is_clean(), "{}", out.render_text());
    assert!(out.counterexamples.is_empty());
    assert!(!out.stats.is_empty());
    assert!(out.stats.iter().all(|s| s.reachable > 0), "{:?}", out.stats);
}

#[test]
fn checking_is_deterministic() {
    let a = checked(CLEAN);
    let b = checked(CLEAN);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.report, b.report);
}

#[test]
fn spec_errors_surface_as_check_errors() {
    let opts =
        PipelineOptions { check: Some(CheckOptions::default()), ..PipelineOptions::default() };
    let err = run_pipeline("%bus_type fcb\nint f(int a;\n", "bad.splice", &opts).err();
    assert!(matches!(err, Some(PipelineError::Spec { .. })), "{err:?}");
}

/// 512 seeded stimulus rows in `d.inputs` slot order: two reset rows (RST
/// high, everything else low), then RST low and every other input free.
fn stimulus(d: &CompiledDesign) -> Vec<Vec<u64>> {
    let rst = reset_slot(d).expect("generated module has RST");
    let mut rng = Rng::new(0x5EED_BEAC);
    (0..512)
        .map(|t| {
            (0..d.inputs.len())
                .map(|slot| {
                    if slot == rst {
                        u64::from(t < 2)
                    } else if t < 2 {
                        0
                    } else {
                        rng.next_u64() & mask(d.signals[d.inputs[slot]].width)
                    }
                })
                .collect()
        })
        .collect()
}

/// Counterexample replay runs the two-state tree-walk in two power-on
/// universes (fill 0 and fill 1); the random designs of
/// `crates/dataflow/tests/two_state.rs` pin that both agree with the
/// ternary explorer wherever it knows a bit. Clean examples produce no
/// counterexamples, so here every `func_*` unit and `user_*` top of every
/// example is driven with 512 seeded rows in the ternary domain and in
/// both universes: every known ternary bit holds in both universes, and
/// after the two reset rows the universes agree on every signal.
#[test]
fn fill_universes_agree_with_the_ternary_explorer_on_every_generated_module() {
    let mut checked = Vec::new();
    for stem in ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"] {
        let (_, modules) = generated(&example_spec(stem));
        let tops =
            modules.iter().filter(|m| m.name.starts_with("func_") || m.name.starts_with("user_"));
        for top in tops {
            let d =
                CompiledDesign::compile(&modules, &top.name).expect("generated module compiles");
            let (mut s0, mut s1) = (two_state_initial(&d, false), two_state_initial(&d, true));
            let mut tstate = d.initial_state();
            for (t, row) in stimulus(&d).iter().enumerate() {
                let at = format!("{stem}/{} row {t}", top.name);
                let tin: Vec<TWord> = d
                    .inputs
                    .iter()
                    .zip(row)
                    .map(|(&id, &v)| TWord::known(v, d.signals[id].width))
                    .collect();
                let ternary = d.eval(&tstate, &tin);
                let v0 = two_state_eval(&d, &s0, row, false);
                let v1 = two_state_eval(&d, &s1, row, true);
                for (id, tv) in ternary.iter().enumerate() {
                    let known = !tv.unknown & mask(tv.width);
                    let name = &d.signals[id].name;
                    assert_eq!(v0[id] & known, tv.bits & known, "{at}: fill 0 breaks {name}");
                    assert_eq!(v1[id] & known, tv.bits & known, "{at}: fill 1 breaks {name}");
                }
                if t >= 2 {
                    assert_eq!(v0, v1, "{at}: the universes diverge after reset");
                }
                s0 = two_state_step(&d, &s0, row, false);
                s1 = two_state_step(&d, &s1, row, true);
                tstate = d.step(&tstate, &tin);
            }
            checked.push(format!("{stem}/{}", top.name));
        }
    }
    assert_eq!(checked.len(), 21, "every func_* and user_* module is covered: {checked:?}");
}

/// The abstract fixpoint the SL05xx lints read closes on a real generated
/// design, not only on hand-written ones: on the DMA example's composed
/// arbiter it converges without the top fallback.
#[test]
fn dataflow_fixpoint_converges_on_the_dma_arbiter() {
    let (_ir, modules) = generated(&example_spec("dma_stream"));
    let d = CompiledDesign::compile(&modules, "user_dma_stream").expect("compiles");
    assert!(reset_slot(&d).is_some(), "the arbiter has RST, so the reset phase runs");
    assert!(splice_dataflow::analyze(&d).converged, "the abstract fixpoint closes");
}

// ---------------------------------------------------------------------------
// Corrupted designs: each defect is found AND its counterexample
// reproduces on two-state replay.
// ---------------------------------------------------------------------------

/// A reset row and an idle row, in the generated modules' input order
/// `CLK, RST, DATA_IN, DATA_IN_VALID, IO_ENABLE, FUNC_ID`.
const RESET: [u64; 6] = [0, 1, 0, 0, 0, 0];
const IDLE: [u64; 6] = [0; 6];

type PinnedCex<'a> = (&'a str, &'a str, Witness, &'a [[u64; 6]]);

/// Assert the whole counterexample list — module, rule, witness and every
/// trace row, in order — so a change of script or BFS order shows.
fn assert_pinned_counterexamples(got: &[splice_check::Counterexample], want: &[PinnedCex]) {
    let got: Vec<(&str, &str, &Witness, Vec<Vec<u64>>)> =
        got.iter().map(|c| (c.module.as_str(), c.code, &c.witness, c.trace.clone())).collect();
    let want: Vec<(&str, &str, &Witness, Vec<Vec<u64>>)> = want
        .iter()
        .map(|(m, code, w, rows)| (*m, *code, w, rows.iter().map(|r| r.to_vec()).collect()))
        .collect();
    assert_eq!(got, want);
}

/// A register with no power-up value that the reset network also misses
/// (the bug class behind the historical `irq_vector` X escape): its
/// unknown survives reset indefinitely.
fn unreset_register_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    stub.decls.push(Decl::Signal { name: "shadow_mode".into(), width: 1, init: None });
    stub.items.push(Item::Process(splice_hdl::ast::Process {
        label: "shadow".into(),
        clocked: true,
        body: vec![Stmt::assign("shadow_mode", Expr::sig("shadow_mode"))],
    }));
    (ir, modules)
}

#[test]
fn unreset_register_yields_confirmed_x_counterexample() {
    let (ir, modules) = unreset_register_design();
    let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
    assert!(out.report.has("SL0404"), "{}", out.render_text());
    let cex = out
        .counterexamples
        .iter()
        .find(|c| c.code == "SL0404")
        .expect("an X counterexample is produced");
    assert!(
        matches!(&cex.witness, Witness::UnknownValue { signal, .. } if signal.contains("shadow_mode")),
        "{:?}",
        cex.witness
    );
    assert!(cex.confirmed, "X witness must reproduce on replay");

    // Every trace is pinned row by row: the first driver script that
    // observes the X, then the stub's and the arbiter's free BFS, which
    // both flag it on the idle observation of the post-reset state.
    let x = |signal: &str| Witness::UnknownValue { signal: signal.into(), step: 2 };
    assert_pinned_counterexamples(
        &out.counterexamples,
        &[
            ("func_mac", "SL0404", x("shadow_mode"), &[RESET, RESET, [0, 0, 1, 1, 1, 1]]),
            ("func_mac", "SL0404", x("shadow_mode"), &[RESET, RESET, IDLE]),
            ("user_mac_unit", "SL0404", x("u_f1_mac.shadow_mode"), &[RESET, RESET, IDLE]),
        ],
    );
}

/// A register whose power-up value is dropped but which reset still
/// clears: the checker flags the undefined power-up window, and replay
/// honestly reports that the unknown is *not* dynamically observable
/// (both concretizations converge on the first reset edge). The finding
/// is kept, marked unconfirmed — disagreements between the two engines
/// stay visible.
fn reset_covered_x_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    let mut stripped = false;
    for d in &mut stub.decls {
        if let Decl::Signal { name, init, .. } = d {
            if name == "cur_state" {
                *init = None;
                stripped = true;
            }
        }
    }
    assert!(stripped, "func_mac has a cur_state register");
    (ir, modules)
}

#[test]
fn reset_covered_x_is_reported_but_marked_unconfirmed() {
    let (ir, modules) = reset_covered_x_design();
    let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
    let cex = out
        .counterexamples
        .iter()
        .find(|c| c.code == "SL0404")
        .expect("the undefined power-up value is reported");
    assert!(!cex.confirmed, "reset masks the X dynamically");
}

fn dead_acknowledge_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    let hits = rewrite_assigns(stub, "DATA_OUT_VALID", &Expr::lit(0, 1));
    assert!(hits > 0, "func_mac drives DATA_OUT_VALID somewhere");
    (ir, modules)
}

#[test]
fn dead_acknowledge_line_yields_confirmed_stall_counterexample() {
    let (ir, modules) = dead_acknowledge_design();
    let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
    assert!(out.report.has("SL0402"), "{}", out.render_text());
    let cex = out
        .counterexamples
        .iter()
        .find(|c| c.code == "SL0402" && c.module == "func_mac")
        .expect("a stall counterexample is produced");
    assert!(
        matches!(&cex.witness, Witness::Stall { signal, .. } if signal == "DATA_OUT_VALID"),
        "{:?}",
        cex.witness
    );
    assert!(cex.confirmed, "the stall must reproduce on replay");
}

/// Reintroduce a historical generator defect: without the arbiter's
/// per-instance FUNC_ID remap, every replica of a `:N`-replicated
/// function compares the raw FUNC_ID against the same `MY_FUNC_ID`, so
/// two instances acknowledge the same request in the same cycle.
fn disabled_remap_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("apb_sensor"));
    let arb = module_mut(&mut modules, "user_apb_sensor");
    let hits = rewrite_assigns(arb, "f1_sample_FUNC_ID", &Expr::sig("FUNC_ID"))
        + rewrite_assigns(arb, "f2_sample_FUNC_ID", &Expr::sig("FUNC_ID"));
    assert!(hits >= 2, "the arbiter remaps FUNC_ID per sample instance");
    (ir, modules)
}

#[test]
fn disabled_func_id_remap_yields_confirmed_mutex_counterexample() {
    let (ir, modules) = disabled_remap_design();
    let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
    assert!(out.report.has("SL0403"), "{}", out.render_text());
    let cex = out
        .counterexamples
        .iter()
        .find(|c| c.code == "SL0403")
        .expect("a mutex counterexample is produced");
    assert!(
        matches!(&cex.witness, Witness::MutexOverlap { a, b, .. }
            if a.contains("sample") && b.contains("sample")),
        "{:?}",
        cex.witness
    );
    assert!(cex.confirmed, "the overlap must reproduce on replay");

    // The only counterexample is the BFS edge out of the post-reset state
    // that first strobes a write to FUNC_ID 1, which both unremapped
    // instances now answer.
    let overlap = Witness::MutexOverlap {
        line: "IO_DONE".into(),
        a: "f1_sample_IO_DONE".into(),
        b: "f2_sample_IO_DONE".into(),
        step: 2,
    };
    assert_pinned_counterexamples(
        &out.counterexamples,
        &[("user_apb_sensor", "SL0403", overlap.clone(), &[RESET, RESET, [0, 0, 0, 1, 1, 1]])],
    );

    // Explored again with the memo of a first run, every edge is composed
    // from learned transitions, and the same overlap and trace come back.
    let d = CompiledDesign::compile(&modules, "user_apb_sensor").expect("compiles");
    let pins = env::resolve_pins(&d).expect("SIS pins");
    let (groups, specs) = arbiter_explorations(&ir, &d, &CheckOptions::default());
    let mut memo = StepMemo::new(&d);
    let first = explore(&d, &pins, &specs[0], &groups, &mut memo);
    let stepped = memo.stepped();
    let second = explore(&d, &pins, &specs[0], &groups, &mut memo);
    assert_eq!(memo.stepped(), stepped, "the second run steps no edge");
    assert_eq!(first, second);
    let (violation, trace) = second.violation.expect("the overlap is found again");
    assert_eq!(violation, overlap);
    assert_eq!(trace, [RESET, RESET, [0, 0, 0, 1, 1, 1]].map(|r| r.to_vec()));
}

/// `func_mac` with a second clocked process that raises IO_DONE whenever
/// DATA_IN_VALID addresses it, without IO_ENABLE: it acknowledges a write
/// beat again in the step the master holds the lines after the first
/// acknowledge.
fn double_acknowledge_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    let addressed = Expr::sig("DATA_IN_VALID")
        .eq(Expr::lit(1, 1))
        .and(Expr::sig("FUNC_ID").eq(Expr::sig("MY_FUNC_ID")));
    stub.items.push(Item::Process(splice_hdl::ast::Process {
        label: "echo".into(),
        clocked: true,
        body: vec![Stmt::if_then(addressed, vec![Stmt::assign("IO_DONE", Expr::lit(1, 1))])],
    }));
    (ir, modules)
}

/// `func_mac` with a register that toggles on every read request and is
/// never cleared, so the register state differs between round ends.
fn round_mismatch_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    stub.decls.push(Decl::Signal { name: "reads_odd".into(), width: 1, init: Some(0) });
    let read = Expr::sig("IO_ENABLE")
        .eq(Expr::lit(1, 1))
        .and(Expr::sig("DATA_IN_VALID").eq(Expr::lit(0, 1)))
        .and(Expr::sig("FUNC_ID").eq(Expr::sig("MY_FUNC_ID")));
    stub.items.push(Item::Process(splice_hdl::ast::Process {
        label: "count_reads".into(),
        clocked: true,
        body: vec![Stmt::if_then(
            read,
            vec![Stmt::assign("reads_odd", Expr::sig("reads_odd").not())],
        )],
    }));
    (ir, modules)
}

/// `func_mac` driving DATA_OUT from a never-driven signal in the cycle it
/// raises DATA_OUT_VALID.
fn unknown_data_design() -> (DesignIr, Vec<Module>) {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    stub.decls.push(Decl::Signal { name: "no_result".into(), width: 32, init: None });
    let valid = Stmt::assign("DATA_OUT_VALID", Expr::lit(1, 1));
    let mut hits = 0;
    edit_bodies(stub, &mut |stmts| {
        if stmts.contains(&valid) {
            stmts.push(Stmt::assign("DATA_OUT", Expr::sig("no_result")));
            hits += 1;
        }
    });
    assert_eq!(hits, 1, "func_mac raises DATA_OUT_VALID in one branch");
    (ir, modules)
}

/// DATA_OUT is an output port of every module the checker explores, so
/// an X on it while DATA_OUT_VALID is high is an unknown output: SL0404
/// names DATA_OUT at the step DATA_OUT_VALID rises.
#[test]
fn unknown_data_under_data_out_valid_is_an_unknown_output() {
    let (ir, modules) = unknown_data_design();
    let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
    let cex = out.counterexamples.first().expect("the X is reported");
    let Witness::UnknownValue { signal, step } = &cex.witness else {
        panic!("{:?}", cex.witness);
    };
    assert_eq!(
        (cex.module.as_str(), cex.code, signal.as_str()),
        ("func_mac", "SL0404", "DATA_OUT")
    );
    assert!(cex.confirmed, "the X reproduces on replay");
    let d = CompiledDesign::compile(&modules, "func_mac").expect("compiles");
    let dov = d.signal_id("DATA_OUT_VALID").expect("DATA_OUT_VALID");
    let history = splice_check::replay::replay(&d, &cex.trace, false);
    assert_eq!(history[*step][dov], 1, "DATA_OUT_VALID is high at step {step}");
    assert!(out.counterexamples.iter().all(|c| c.code == "SL0404"), "{}", out.render_text());
}

/// The pin contract makes that argument a checked one: a module whose
/// DATA_OUT is an internal signal has no pins to check.
#[test]
fn resolve_pins_requires_data_out_to_be_an_output_port() {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    stub.ports.retain(|p| p.name != "DATA_OUT");
    stub.decls.push(Decl::Signal { name: "DATA_OUT".into(), width: 32, init: Some(0) });
    let d = CompiledDesign::compile(&modules, "func_mac").expect("compiles");
    let err = env::resolve_pins(&d).expect_err("DATA_OUT is not an output");
    assert_eq!(err, "`func_mac` has no `DATA_OUT` output port");
    let err = check_modules(&ir, &modules, &CheckOptions::default()).err();
    assert!(matches!(err, Some(CheckError::Pins(_))), "{err:?}");
}

/// Lint reports a module that does not flatten (SL0500), and the pipeline
/// checks only designs that lint accepts, so the checker refuses one.
#[test]
fn a_module_that_does_not_flatten_is_a_check_error() {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    stub.items.push(Item::Assign { lhs: "cur_state".into(), rhs: Expr::sig("next_state") });
    let err = check_modules(&ir, &modules, &CheckOptions::default()).err();
    assert!(
        matches!(&err, Some(CheckError::Compile(CompileError::MixedDrivers { name })) if name == "cur_state"),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------------
// Golden reports.
// ---------------------------------------------------------------------------

/// Compare `out`'s text and JSON reports with `tests/golden/check/<name>.*`;
/// `SPLICE_BLESS=1 cargo test --test check` rewrites them.
fn assert_golden(name: &str, out: &CheckOutcome) {
    let dir = repo_path("tests/golden/check");
    for (ext, got) in [("txt", out.render_text()), ("json", out.render_json())] {
        let path = dir.join(format!("{name}.{ext}"));
        if std::env::var_os("SPLICE_BLESS").is_some() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &got).unwrap();
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {name}.{ext}: {e}; bless with SPLICE_BLESS=1")
        });
        assert_eq!(got, want, "{name}.{ext}");
    }
}

/// The whole check report, findings, counterexamples and statistics, of
/// every example and of every corrupted design above, byte for byte. Each
/// corrupted design's first counterexample is the rule it was built for.
#[test]
fn check_reports_match_goldens() {
    for stem in ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"] {
        assert_golden(stem, &checked(&example_spec(stem)));
    }
    for (name, (ir, modules), code) in [
        ("unreset_register", unreset_register_design(), "SL0404"),
        ("reset_covered_x", reset_covered_x_design(), "SL0404"),
        ("dead_acknowledge", dead_acknowledge_design(), "SL0402"),
        ("disabled_remap", disabled_remap_design(), "SL0403"),
        ("double_acknowledge", double_acknowledge_design(), "SL0402"),
        ("round_mismatch", round_mismatch_design(), "SL0401"),
    ] {
        let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
        assert_eq!(out.counterexamples.first().map(|c| c.code), Some(code), "{name}");
        assert_golden(name, &out);
    }
}

// ---------------------------------------------------------------------------
// Exact reuse across explorations.
// ---------------------------------------------------------------------------

/// One compiled design with the mutex groups and explorations that
/// `check_modules` runs on it.
type Explorations = (CompiledDesign, Vec<MutexGroup>, Vec<ExploreSpec>);

/// Every exploration `check_modules` runs on a generated design: each
/// `func_*` module alone, then the composed arbiter's pair runs.
fn explorations(ir: &DesignIr, modules: &[Module], opts: &CheckOptions) -> Vec<Explorations> {
    let mut designs = Vec::new();
    for stub in &ir.stubs {
        let d = CompiledDesign::compile(modules, &format!("func_{}", stub.name)).expect("compiles");
        designs.push((d, Vec::new(), vec![stub_exploration(ir, stub, opts)]));
    }
    let arb = format!("user_{}", ir.module.params.device_name);
    if modules.iter().any(|m| m.name == arb) {
        let d = CompiledDesign::compile(modules, &arb).expect("compiles");
        let (groups, specs) = arbiter_explorations(ir, &d, opts);
        designs.push((d, groups, specs));
    }
    designs
}

/// Every exploration `check_modules` runs on `spec`, three ways: with an
/// empty memo (every edge stepped), with a fresh memo per run, and with one
/// memo shared by all of a design's runs taken in reverse order. All three
/// must agree outcome for outcome. Returns how many runs were compared.
fn assert_memo_is_exact(spec: &str, opts: &CheckOptions) -> usize {
    let (ir, modules) = generated(spec);
    let mut runs = 0;
    for (d, groups, specs) in &explorations(&ir, &modules, opts) {
        let pins = env::resolve_pins(d).expect("SIS pins");
        let empty: Vec<BfsOutcome> =
            specs.iter().map(|s| explore(d, &pins, s, groups, &mut StepMemo::default())).collect();
        let fresh: Vec<BfsOutcome> =
            specs.iter().map(|s| explore(d, &pins, s, groups, &mut StepMemo::new(d))).collect();
        let mut memo = StepMemo::new(d);
        let mut shared: Vec<BfsOutcome> =
            specs.iter().rev().map(|s| explore(d, &pins, s, groups, &mut memo)).collect();
        shared.reverse();
        assert_eq!(fresh, empty, "{}: a fresh memo changed an outcome", d.name);
        assert_eq!(shared, empty, "{}: a shared memo changed an outcome", d.name);
        runs += specs.len();
    }
    runs
}

#[test]
fn step_memo_reuse_is_exact_on_examples_and_generated_specs() {
    let mut runs = 0;
    for stem in ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"] {
        runs += assert_memo_is_exact(&example_spec(stem), &CheckOptions::default());
    }
    // Budgets small enough that most runs stop on them.
    let small = CheckOptions { max_states: 600, max_depth: 24, ..CheckOptions::default() };
    runs += assert_memo_is_exact(&splice_testutil::wide_spec(4), &small);
    let tiny = CheckOptions { max_states: 40, max_depth: 16, ..CheckOptions::default() };
    let mut rng = Rng::new(0x57E9_3E30);
    for _ in 0..20 {
        runs += assert_memo_is_exact(&splice_testutil::arb_spec(&mut rng), &tiny);
    }
    assert!(runs > 100, "{runs} explorations compared");
}

/// The search `explore` performs, written plainly: every edge is stepped
/// and its observation settled, with no step memo and no verdict cache,
/// and states are kept whole in a map keyed on their register values.
fn reference_bfs(
    d: &CompiledDesign,
    pins: &env::EnvPins,
    spec: &ExploreSpec,
    mutex_groups: &[MutexGroup],
) -> BfsOutcome {
    let words = |row: &[u64]| -> Vec<TWord> {
        row.iter().zip(&d.inputs).map(|(&v, &id)| TWord::known(v, d.signals[id].width)).collect()
    };
    let mut reset = vec![0u64; d.inputs.len()];
    reset[pins.rst] = 1;
    let idle = vec![0u64; d.inputs.len()];
    let mut rows = Vec::new();
    for valid in [0, 1] {
        for enable in [0, 1] {
            for &data in &spec.data_domain {
                for &func in &spec.func_ids {
                    let mut row = vec![0u64; d.inputs.len()];
                    row[pins.data_in] = data;
                    row[pins.valid] = valid;
                    row[pins.enable] = enable;
                    row[pins.func] = func;
                    rows.push(row);
                }
            }
        }
    }
    let name = |id: usize| d.signals[id].name.clone();
    // The observation at trace row `step`: every register known, then
    // every output known, then no two members of a mutex group high.
    let observe = |interp: &mut Interp<TWord>, state: &[TWord], row: &[u64], step: usize| {
        if let Some(slot) = state.iter().position(|w| !w.is_known()) {
            return Some(Witness::UnknownValue { signal: name(d.registers[slot]), step });
        }
        let obs = interp.settle(state, &words(row));
        if let Some(&id) = d.outputs.iter().find(|&&id| !obs[id].is_known()) {
            return Some(Witness::UnknownValue { signal: name(id), step });
        }
        mutex_groups.iter().find_map(|g| {
            let high: Vec<usize> = g.members.iter().copied().filter(|&m| obs[m].is(1)).collect();
            (high.len() >= 2).then(|| Witness::MutexOverlap {
                line: g.line.clone(),
                a: name(high[0]),
                b: name(high[1]),
                step,
            })
        })
    };

    let mut interp = Interp::new(d);
    let mut state = d.initial_state();
    let mut next = Vec::new();
    for _ in 0..2 {
        interp.step(&state, &words(&reset), &mut next);
        std::mem::swap(&mut state, &mut next);
    }
    // Per discovered state: its registers, parent, the row into it, depth.
    let mut found: Vec<(Vec<TWord>, usize, usize, u32)> = vec![(state.clone(), 0, 0, 0)];
    let trace = |found: &[(Vec<TWord>, usize, usize, u32)], mut idx: usize, last: &[u64]| {
        let mut trace = vec![last.to_vec()];
        while idx != 0 {
            trace.push(rows[found[idx].2].clone());
            idx = found[idx].1;
        }
        trace.extend([reset.clone(), reset.clone()]);
        trace.reverse();
        trace
    };
    let mut outcome = BfsOutcome {
        reachable: 1,
        complete: false,
        budget_exhausted: false,
        interrupted: false,
        depth_capped: false,
        frontier_peak: 0,
        violation: None,
    };
    if let Some(v) = observe(&mut interp, &state, &idle, 2) {
        outcome.violation = Some((v, trace(&found, 0, &idle)));
        return outcome;
    }
    let key = |state: &[TWord]| -> Vec<u64> { state.iter().map(|w| w.bits).collect() };
    let mut index: HashMap<Vec<u64>, usize> = HashMap::from([(key(&state), 0)]);
    let mut queue = std::collections::VecDeque::from([0usize]);
    outcome.frontier_peak = 1;
    while let Some(idx) = queue.pop_front() {
        let (cur, _, _, depth) = found[idx].clone();
        if depth >= spec.max_depth {
            outcome.depth_capped = true;
            continue;
        }
        for (r, row) in rows.iter().enumerate() {
            interp.step(&cur, &words(row), &mut next);
            if let Some(v) = observe(&mut interp, &next, row, depth as usize + 2) {
                outcome.reachable = found.len();
                outcome.budget_exhausted = false;
                outcome.violation = Some((v, trace(&found, idx, row)));
                return outcome;
            }
            if index.contains_key(&key(&next)) {
                continue;
            }
            if found.len() >= spec.max_states {
                outcome.budget_exhausted = true;
                continue;
            }
            index.insert(key(&next), found.len());
            queue.push_back(found.len());
            found.push((next.clone(), idx, r, depth + 1));
            outcome.frontier_peak = outcome.frontier_peak.max(queue.len());
        }
    }
    outcome.reachable = found.len();
    outcome.complete = !outcome.budget_exhausted && !outcome.depth_capped;
    outcome
}

/// A hand-built SIS module whose verdict depends on the row and on a
/// register: `seen` latches IO_ENABLE and `armed` latches `seen`; of the
/// mutex pair, `a` is `armed` and `b` is `armed & DATA_IN_VALID`. Each row
/// first checks clean with `armed` low, and `armed` first rises on a row
/// with DATA_IN_VALID low; the overlap comes on a later edge that repeats
/// a row, or a value of `armed`, already checked clean, so a verdict kept
/// without its row or without the observed registers would miss it.
fn row_dependent_design() -> (CompiledDesign, Vec<MutexGroup>) {
    let mut m = Module::new("latch");
    m.ports = [("CLK", 1), ("RST", 1), ("DATA_IN", 32), ("DATA_IN_VALID", 1)]
        .into_iter()
        .chain([("IO_ENABLE", 1), ("FUNC_ID", 8)])
        .map(|(name, width)| Port::input(name, width))
        .chain(
            [("IO_DONE", 1), ("DATA_OUT_VALID", 1), ("DATA_OUT", 32)]
                .map(|(n, w)| Port::output(n, w)),
        )
        .collect();
    for (name, init) in [("seen", Some(0)), ("armed", Some(0)), ("a", None), ("b", None)] {
        m.decls.push(Decl::Signal { name: name.into(), width: 1, init });
    }
    m.items = vec![
        Item::Process(splice_hdl::ast::Process {
            label: "latch".into(),
            clocked: true,
            body: vec![
                Stmt::assign("seen", Expr::sig("IO_ENABLE")),
                Stmt::assign("armed", Expr::sig("seen")),
            ],
        }),
        Item::Assign { lhs: "a".into(), rhs: Expr::sig("armed") },
        Item::Assign { lhs: "b".into(), rhs: Expr::sig("armed").and(Expr::sig("DATA_IN_VALID")) },
    ];
    for (name, width) in [("IO_DONE", 1), ("DATA_OUT_VALID", 1), ("DATA_OUT", 32)] {
        m.items.push(Item::Assign { lhs: name.into(), rhs: Expr::lit(0, width) });
    }
    let d = CompiledDesign::compile(&[m], "latch").expect("compiles");
    let members = ["a", "b"].map(|name| d.signal_id(name).expect("net")).to_vec();
    (d, vec![MutexGroup { line: "IO_DONE".into(), members }])
}

/// Every exploration `check_modules` runs on (`ir`, `modules`), with one
/// memo per design as `check_modules` keeps it, equals the reference
/// search's outcome, trace included. Returns the runs compared and the
/// violations among them.
fn assert_matches_reference(
    ir: &DesignIr,
    modules: &[Module],
    opts: &CheckOptions,
) -> (usize, usize) {
    let (mut runs, mut violations) = (0, 0);
    for (d, groups, specs) in &explorations(ir, modules, opts) {
        let pins = env::resolve_pins(d).expect("SIS pins");
        let mut memo = StepMemo::new(d);
        for (k, spec) in specs.iter().enumerate() {
            let got = explore(d, &pins, spec, groups, &mut memo);
            let want = reference_bfs(d, &pins, spec, groups);
            assert_eq!(got, want, "{} run {k}: explore differs from the reference", d.name);
            runs += 1;
            violations += usize::from(got.violation.is_some());
        }
    }
    (runs, violations)
}

/// The verdict cache, the step memo and the packed storage together give
/// the outcome of a search that steps and settles every edge, on every
/// exploration `check_modules` runs: the examples and the dirty fixture
/// under the default budgets, a 4-function `wide_spec` and 20 generated
/// specs under budgets small enough that most runs stop on them, and two
/// corrupted designs, whose first violation and trace must match.
#[test]
fn explore_matches_a_reference_search_that_settles_every_edge() {
    let opts = CheckOptions::default();
    let mut runs = 0;
    let dirty = std::fs::read_to_string(repo_path("tests/fixtures/dirty.splice")).unwrap();
    let stems = ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"];
    for spec in stems.map(example_spec).iter().chain([&dirty]) {
        let (ir, modules) = generated(spec);
        let (n, violations) = assert_matches_reference(&ir, &modules, &opts);
        assert_eq!(violations, 0, "the examples and the fixture check clean");
        runs += n;
    }
    let small = CheckOptions { max_states: 600, max_depth: 24, ..CheckOptions::default() };
    let (ir, modules) = generated(&splice_testutil::wide_spec(4));
    runs += assert_matches_reference(&ir, &modules, &small).0;
    let tiny = CheckOptions { max_states: 40, max_depth: 16, ..CheckOptions::default() };
    let mut rng = Rng::new(0x57E9_3E30);
    for _ in 0..20 {
        let (ir, modules) = generated(&splice_testutil::arb_spec(&mut rng));
        runs += assert_matches_reference(&ir, &modules, &tiny).0;
    }
    for (tag, (ir, modules)) in [
        ("unreset register", unreset_register_design()),
        ("disabled remap", disabled_remap_design()),
    ] {
        let (n, violations) = assert_matches_reference(&ir, &modules, &opts);
        assert!(violations > 0, "{tag}: the corrupted design violates");
        runs += n;
    }
    assert!(runs > 100, "{runs} explorations compared");

    // In the generated designs above every first violation comes on a row
    // never checked before, so nothing there needs the verdict key to hold
    // both the row and the observed registers; here it does.
    let (d, groups) = row_dependent_design();
    let pins = env::resolve_pins(&d).expect("SIS pins");
    let spec = ExploreSpec {
        func_ids: vec![0],
        data_domain: vec![0],
        max_states: 100,
        max_depth: 8,
        stop: None,
    };
    let got = explore(&d, &pins, &spec, &groups, &mut StepMemo::new(&d));
    assert_eq!(got, reference_bfs(&d, &pins, &spec, &groups));
    let overlap =
        Witness::MutexOverlap { line: "IO_DONE".into(), a: "a".into(), b: "b".into(), step: 3 };
    assert_eq!(got.violation.map(|(v, trace)| (v, trace.len())), Some((overlap, 4)));
}

/// Edges tried, edges stepped and observations settled, summed over every
/// exploration `check_modules` runs on an example, with one memo per
/// design as `check_modules` keeps it.
fn work_counts(stem: &str) -> (u64, u64, u64) {
    let (ir, modules) = generated(&example_spec(stem));
    let mut counts = (0, 0, 0);
    for (d, groups, specs) in &explorations(&ir, &modules, &CheckOptions::default()) {
        let pins = env::resolve_pins(d).expect("SIS pins");
        let mut memo = StepMemo::new(d);
        for spec in specs {
            explore(d, &pins, spec, groups, &mut memo);
        }
        counts.0 += memo.edges();
        counts.1 += memo.stepped();
        counts.2 += memo.settled();
    }
    counts
}

/// The work the reuse saves, as the `check.explore` spans report it, is a
/// repeatable count: most edges are composed rather than stepped, and most
/// observations are known from an earlier edge with the same row and the
/// same observed registers, so they are never settled.
#[test]
fn explore_work_counts_are_pinned_per_example() {
    let got: Vec<(&str, (u64, u64, u64))> =
        ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"]
            .into_iter()
            .map(|stem| (stem, work_counts(stem)))
            .collect();
    let want: &[(&str, (u64, u64, u64))] = &[
        ("apb_sensor", (13656, 1896, 726)),
        ("dma_stream", (12072, 3408, 196)),
        ("fir_filter", (36048, 5880, 130)),
        ("hw_timer", (32904, 4568, 1748)),
        ("mac", (3056, 1128, 241)),
    ];
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------------
// Driver/HDL cross-check, per bus backend.
// ---------------------------------------------------------------------------

#[test]
fn driver_cross_check_is_clean_per_bus_and_flags_injected_mismatches() {
    for bus in ["fcb", "apb", "ahb", "plb"] {
        let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
        let spec = format!(
            "%device_name xdev_{bus}\n%bus_type {bus}\n%bus_width 32\n{base}\
             int f(int a);\nint g(int b, int c);\n"
        );
        let (ir, modules) = generated(&spec);
        let (lib_h, driver_c) = driver_texts(&ir);

        let mut clean = LintReport::new();
        cross_check(&ir, &modules, &lib_h, &driver_c, &mut clean);
        assert!(clean.is_clean(), "{bus}:\n{}", clean.render_text());

        // An ID macro that disagrees with the stub's MY_FUNC_ID constant.
        let bad_c = driver_c.replace("#define F_ID 1", "#define F_ID 6");
        assert_ne!(bad_c, driver_c, "{bus}: driver declares F_ID");
        let mut report = LintReport::new();
        cross_check(&ir, &modules, &lib_h, &bad_c, &mut report);
        assert!(report.has("SL0407"), "{bus}:\n{}", report.render_text());

        // A base address that disagrees with the bus register map.
        if bus != "fcb" {
            let bad_h = lib_h.replace(
                "#define SPLICE_BASE_ADDRESS 0x80000000UL",
                "#define SPLICE_BASE_ADDRESS 0xDEAD0000UL",
            );
            assert_ne!(bad_h, lib_h, "{bus}: header declares the base address");
            let mut report = LintReport::new();
            cross_check(&ir, &modules, &bad_h, &driver_c, &mut report);
            assert!(report.has("SL0408"), "{bus}:\n{}", report.render_text());
        }
    }
}

/// The Fig 9.2 FCB and DMA builds cross-check clean, so the checker reads
/// the runtime burst loops and the DMA threshold branch, and a wrong beat
/// count or a lost DMA branch in those bodies still fires.
#[test]
fn driver_cross_check_reads_burst_loops_and_the_dma_threshold() {
    use splice_devices::interp::interp_spec;
    let fcb = interp_spec("fcb", false)
        .replace("%bus_width 32\n", "%bus_width 32\n%burst_support true\n");
    for (spec, broken, fixed, code) in [
        // A scalar sent as a quad burst moves three beats too many.
        (fcb.as_str(), "WRITE_SINGLE(func_addr, &n1);", "WRITE_QUAD(func_addr, &n1);", "SL0409"),
        // A runtime DMA transfer that never engages the engine.
        (&interp_spec("plb", true), "WRITE_DMA(", "WRITE_QUAD(", "SL0410"),
    ] {
        let (ir, modules) = generated(spec);
        let (lib_h, driver_c) = driver_texts(&ir);
        let mut clean = LintReport::new();
        cross_check(&ir, &modules, &lib_h, &driver_c, &mut clean);
        assert!(clean.is_clean(), "{spec}\n{}\n{driver_c}", clean.render_text());
        let bad_c = driver_c.replace(broken, fixed);
        assert_ne!(bad_c, driver_c, "the driver contains `{broken}`");
        let mut report = LintReport::new();
        cross_check(&ir, &modules, &lib_h, &bad_c, &mut report);
        assert!(
            report.has(code),
            "{code} after `{broken}` -> `{fixed}`:\n{}",
            report.render_text()
        );
    }
}
