//! Integration tests of the `splice-check` model checker.
//!
//! Four claims are pinned here:
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
//!    FUNC_ID remap) each produce the right SL04xx finding with a
//!    counterexample that **reproduces on the independent two-state step
//!    tape**. Two of them pin every counterexample's trace and witness
//!    exactly, so a change of script or exploration order fails here too.
//! 4. **Driver agreement**: for every bus backend the generated C driver
//!    cross-checks clean against the generated HDL, and injected
//!    driver/hardware mismatches are flagged.
//! 5. **Tape parity on generated HDL**: the compiled step tape that
//!    replays counterexamples computes the same signals and registers as
//!    the two-state tree-walk on every module the examples generate, not
//!    only on random designs.

use splice::pipeline::{run_pipeline, PipelineError, PipelineOptions};
use splice_check::{check_modules, cross_check, CheckOptions, CheckOutcome, Witness};
use splice_core::elaborate::elaborate;
use splice_core::hdlgen::design_modules;
use splice_core::DesignIr;
use splice_dataflow::engine::reset_slot;
use splice_dataflow::tv::mask;
use splice_dataflow::{two_state_eval, two_state_initial, two_state_step, CompiledDesign, StepFn};
use splice_hdl::ast::{Decl, Item, Stmt};
use splice_hdl::{Expr, Module};
use splice_lint::LintReport;
use splice_testutil::Rng;
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

/// Replace the right-hand side of every assignment to `lhs` — in
/// continuous assigns and recursively inside process bodies.
fn rewrite_assigns(module: &mut Module, lhs: &str, rhs: &Expr) -> usize {
    fn in_stmts(stmts: &mut [Stmt], lhs: &str, rhs: &Expr, hits: &mut usize) {
        for s in stmts {
            match s {
                Stmt::Assign { lhs: l, rhs: r } if l == lhs => {
                    *r = rhs.clone();
                    *hits += 1;
                }
                Stmt::If { then, elifs, els, .. } => {
                    in_stmts(then, lhs, rhs, hits);
                    for (_, body) in elifs {
                        in_stmts(body, lhs, rhs, hits);
                    }
                    if let Some(body) = els {
                        in_stmts(body, lhs, rhs, hits);
                    }
                }
                Stmt::Case { arms, default, .. } => {
                    for (_, body) in arms {
                        in_stmts(body, lhs, rhs, hits);
                    }
                    if let Some(body) = default {
                        in_stmts(body, lhs, rhs, hits);
                    }
                }
                _ => {}
            }
        }
    }
    let mut hits = 0;
    for item in &mut module.items {
        match item {
            Item::Assign { lhs: l, rhs: r } if l == lhs => {
                *r = rhs.clone();
                hits += 1;
            }
            Item::Process(p) => in_stmts(&mut p.body, lhs, rhs, &mut hits),
            _ => {}
        }
    }
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
fn tape_stimulus(d: &CompiledDesign) -> Vec<Vec<u64>> {
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

/// Counterexample replay runs the compiled step tape, which is pinned
/// against the two-state tree-walk on random designs
/// (`crates/dataflow/tests/lower_parity.rs`). Clean examples produce no
/// counterexamples, so here every `func_*` unit and `user_*` top of every
/// example is lowered under both fills and driven with 512 seeded rows:
/// after each eval the settled signals agree, after each step the
/// registers do.
#[test]
fn compiled_tape_matches_the_tree_walk_on_every_generated_module() {
    let mut checked = Vec::new();
    for stem in ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"] {
        let (_, modules) = generated(&example_spec(stem));
        let tops =
            modules.iter().filter(|m| m.name.starts_with("func_") || m.name.starts_with("user_"));
        for top in tops {
            let d =
                CompiledDesign::compile(&modules, &top.name).expect("generated module compiles");
            let rows = tape_stimulus(&d);
            for fill in [false, true] {
                let at = |t: usize| format!("{stem}/{} fill={fill} row {t}", top.name);
                let tape = StepFn::lower(&d, fill);
                let mut words = tape.new_state();
                let mut state = two_state_initial(&d, fill);
                assert_eq!(tape.registers(&words), state, "{}: power-on state", at(0));
                for (t, row) in rows.iter().enumerate() {
                    tape.eval(&mut words, row);
                    let settled = two_state_eval(&d, &state, row, fill);
                    assert_eq!(tape.signals(&words), &settled[..], "{}: signals", at(t));
                    tape.step(&mut words, row);
                    state = two_state_step(&d, &state, row, fill);
                    assert_eq!(tape.registers(&words), state, "{}: registers", at(t));
                }
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
// reproduces on the step tape.
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
#[test]
fn unreset_register_yields_confirmed_x_counterexample() {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    stub.decls.push(Decl::Signal { name: "shadow_mode".into(), width: 1, init: None });
    stub.items.push(Item::Process(splice_hdl::ast::Process {
        label: "shadow".into(),
        clocked: true,
        body: vec![Stmt::assign("shadow_mode", Expr::sig("shadow_mode"))],
    }));

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
    assert!(cex.confirmed, "X witness must reproduce on the tape");

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
#[test]
fn reset_covered_x_is_reported_but_marked_unconfirmed() {
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

    let out = check_modules(&ir, &modules, &CheckOptions::default()).expect("check runs");
    let cex = out
        .counterexamples
        .iter()
        .find(|c| c.code == "SL0404")
        .expect("the undefined power-up value is reported");
    assert!(!cex.confirmed, "reset masks the X dynamically");
}

#[test]
fn dead_acknowledge_line_yields_confirmed_stall_counterexample() {
    let (ir, mut modules) = generated(&example_spec("mac"));
    let stub = module_mut(&mut modules, "func_mac");
    let hits = rewrite_assigns(stub, "DATA_OUT_VALID", &Expr::lit(0, 1));
    assert!(hits > 0, "func_mac drives DATA_OUT_VALID somewhere");

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
    assert!(cex.confirmed, "the stall must reproduce on the tape");
}

/// Reintroduce a historical generator defect: without the arbiter's
/// per-instance FUNC_ID remap, every replica of a `:N`-replicated
/// function compares the raw FUNC_ID against the same `MY_FUNC_ID`, so
/// two instances acknowledge the same request in the same cycle.
#[test]
fn disabled_func_id_remap_yields_confirmed_mutex_counterexample() {
    let (ir, mut modules) = generated(&example_spec("apb_sensor"));
    let arb = module_mut(&mut modules, "user_apb_sensor");
    let hits = rewrite_assigns(arb, "f1_sample_FUNC_ID", &Expr::sig("FUNC_ID"))
        + rewrite_assigns(arb, "f2_sample_FUNC_ID", &Expr::sig("FUNC_ID"));
    assert!(hits >= 2, "the arbiter remaps FUNC_ID per sample instance");

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
    assert!(cex.confirmed, "the overlap must reproduce on the tape");

    // The only counterexample is the BFS edge out of the post-reset state
    // that first strobes a write to FUNC_ID 1, which both unremapped
    // instances now answer.
    let overlap = Witness::MutexOverlap {
        a: "f1_sample_IO_DONE".into(),
        b: "f2_sample_IO_DONE".into(),
        step: 2,
    };
    assert_pinned_counterexamples(
        &out.counterexamples,
        &[("user_apb_sensor", "SL0403", overlap, &[RESET, RESET, [0, 0, 0, 1, 1, 1]])],
    );
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
