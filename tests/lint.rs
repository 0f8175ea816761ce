//! Integration tests of the `splice-lint` static analysis.
//!
//! Three claims are pinned here:
//!
//! 1. **Self-application**: every module the generator emits for the
//!    bundled example specifications lints clean — the tool satisfies its
//!    own rules.
//! 2. **Golden reports**: the rendered lint report (text and JSON) for
//!    every spec under `examples/specs/` plus the deliberately dirty
//!    fixture is pinned byte-for-byte under `tests/golden/lint/`.
//! 3. **Detection**: corrupting a generated design introduces findings the
//!    HDL rules catch with correct signal paths (combinational loop,
//!    multiple drivers).

use splice::pipeline::{run_pipeline, PipelineOptions};
use splice_check::CheckOptions;
use splice_core::elaborate::elaborate;
use splice_core::hdlgen::design_modules;
use splice_hdl::ast::{Decl, Item, Port, Process};
use splice_hdl::{Expr, Module, Stmt};
use splice_lint::{lint_dataflow, lint_modules, LintReport};
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn example_specs() -> Vec<(String, String)> {
    let dir = repo_path("examples/specs");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/specs exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "splice"))
        .map(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).unwrap();
            (stem, text)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 5, "expected the bundled example specs, found {}", out.len());
    out
}

/// The lint report of a pipeline run over a spec that validates.
fn lint(source: &str) -> LintReport {
    run_pipeline(source, "lint-test.splice", &PipelineOptions::default())
        .expect("spec validates")
        .lint
}

fn golden(name: &str) -> String {
    let path = repo_path("tests/golden/lint").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

#[test]
fn generator_output_lints_clean_for_every_example_spec() {
    for (stem, source) in example_specs() {
        let report = lint(&source);
        assert!(report.is_clean(), "examples/specs/{stem}.splice:\n{}", report.render_text());
    }
}

/// The widest device validation accepts: 63 functions on one PLB device,
/// each `long fK(int nK, int*:nK xsK, char cK)`, the shape perfbench's
/// `gen_wide` scales.
#[test]
fn the_widest_valid_device_lints_clean() {
    let source = splice_testutil::wide_spec(63);
    let out = run_pipeline(&source, "wide.splice", &PipelineOptions::default())
        .expect("63 functions validate");
    assert!(out.lint.is_clean(), "{}", out.lint.render_text());
    // 63 function files, the user top and the bus interface.
    assert_eq!(out.hw.len(), 65);
    // The driver source, its header and `splice_lib.h`.
    assert_eq!(out.sw.len(), 3);
}

/// A `%bus_width`-bit Wishbone device declaring `decls`.
fn wishbone(width: u32, decls: &str) -> String {
    format!(
        "%device_name narrow\n%bus_type wishbone\n%bus_width {width}\n\
         %base_address 0x80000000\n{decls}\n"
    )
}

/// Long transfers on narrow buses: a static count of at least
/// 2^`%bus_width` beats gets a counter as wide as its count, and a runtime
/// bound on an 8-bit bus is latched from its whole word. The 8-bit device
/// lints and model-checks clean.
#[test]
fn long_transfers_on_narrow_buses_lint_and_check_clean() {
    let source = wishbone(8, "void f(char*:300 x);\nint g(char n, int*:n xs);");
    let opts =
        PipelineOptions { check: Some(CheckOptions::default()), ..PipelineOptions::default() };
    let out = run_pipeline(&source, "narrow8.splice", &opts).expect("spec validates");
    assert!(out.lint.is_clean(), "{}", out.lint.render_text());
    let check = out.check.expect("lint passed, so the checker ran");
    assert!(check.report.is_clean(), "{}", check.report.render_text());

    // Static shapes of at least 2^width beats, as inputs and results.
    // These are linted only: the checker's scripts would run every beat.
    for (width, decls) in [
        (8, "void f(char*:256 x);"),
        (8, "char*:256 f();"),
        (8, "void f(short*:128 x);\nint*:100 g(long long*:40 x);"),
        (8, "long long*:65535 f(int*:65535 x);"),
        (16, "void f(int*:32768 x);"),
        (16, "void f(int*:65535 x);"),
        (16, "long long*:16384 f(long long*:65535 x);"),
    ] {
        let report = lint(&wishbone(width, decls));
        assert!(report.is_clean(), "{width}-bit `{decls}`:\n{}", report.render_text());
    }
}

#[test]
fn example_lint_reports_match_goldens() {
    for (stem, source) in example_specs() {
        let report = lint(&source);
        assert_eq!(report.render_text(), golden(&format!("{stem}.txt")), "{stem} text report");
        assert_eq!(report.render_json(), golden(&format!("{stem}.json")), "{stem} json report");
    }
}

#[test]
fn dirty_fixture_report_matches_golden() {
    let source = std::fs::read_to_string(repo_path("tests/fixtures/dirty.splice")).unwrap();
    let report = lint(&source);
    assert_eq!(report.codes(), vec!["SL0101", "SL0102", "SL0105"], "{}", report.render_text());
    assert_eq!(report.render_text(), golden("dirty.txt"));
    assert_eq!(report.render_json(), golden("dirty.json"));
}

/// A deliberately value-dirty module set exercising the whole SL05xx
/// dataflow family: `dirtyflow` carries one defect per value rule
/// (SL0501–SL0507) and the companion `twist` gives its state register two
/// drivers so it cannot be compiled at all (SL0500).
fn dataflow_fixture_modules() -> Vec<Module> {
    let mut m = Module::new("dirtyflow");
    m.ports = vec![
        Port::input("CLK", 1),
        Port::input("RST", 1),
        Port::input("GO", 1),
        Port::input("A", 2),
        Port::input("DIN", 2),
        Port::output("BUSY", 1),
        Port::output("GATE", 1),
        Port::output("NARROW", 2),
        Port::output("ISTWO", 1),
        Port::output("CAPT", 2),
        Port::output("Q", 1),
    ];
    m.decls = vec![
        Decl::Signal { name: "st".into(), width: 2, init: None },
        Decl::Signal { name: "two".into(), width: 4, init: None },
        Decl::Signal { name: "cap".into(), width: 2, init: None },
        Decl::Signal { name: "orphan".into(), width: 2, init: None },
        Decl::Signal { name: "hold".into(), width: 1, init: Some(0) },
    ];
    // A 3-state FSM with an arm for the unreachable state 3 (SL0502).
    m.items.push(Item::Process(Process {
        label: "ctl".into(),
        clocked: true,
        body: vec![Stmt::if_else(
            Expr::sig("RST"),
            vec![Stmt::assign("st", Expr::lit(0, 2))],
            vec![Stmt::Case {
                expr: Expr::sig("st"),
                arms: vec![
                    (
                        0,
                        vec![Stmt::if_then(
                            Expr::sig("GO"),
                            vec![Stmt::assign("st", Expr::lit(1, 2))],
                        )],
                    ),
                    (1, vec![Stmt::assign("st", Expr::lit(2, 2))]),
                    (2, vec![Stmt::assign("st", Expr::lit(0, 2))]),
                    (3, vec![Stmt::assign("st", Expr::lit(1, 2))]),
                ],
                default: Some(vec![Stmt::assign("st", Expr::lit(0, 2))]),
            }],
        )],
    }));
    m.items.push(Item::Assign { lhs: "BUSY".into(), rhs: Expr::sig("st").ne(Expr::lit(0, 2)) });
    // Provably constant despite reading a live input (SL0501).
    m.items.push(Item::Assign { lhs: "GATE".into(), rhs: Expr::sig("GO").and(Expr::lit(0, 1)) });
    // {GO, A} is 3 bits; NARROW holds 2 (SL0503).
    m.items.push(Item::Assign {
        lhs: "NARROW".into(),
        rhs: Expr::Concat(vec![Expr::sig("GO"), Expr::sig("A")]),
    });
    // `two` is tied off, so the comparison is foregone (SL0504).
    m.items.push(Item::Assign { lhs: "two".into(), rhs: Expr::lit(2, 4) });
    m.items.push(Item::Assign { lhs: "ISTWO".into(), rhs: Expr::sig("two").eq(Expr::lit(2, 4)) });
    // `cap` is never reset and only conditionally loaded (SL0505).
    m.items.push(Item::Process(Process {
        label: "load".into(),
        clocked: true,
        body: vec![Stmt::if_then(Expr::sig("GO"), vec![Stmt::assign("cap", Expr::sig("DIN"))])],
    }));
    m.items.push(Item::Assign { lhs: "CAPT".into(), rhs: Expr::sig("cap") });
    // A cone feeding nothing (SL0506).
    m.items.push(Item::Assign { lhs: "orphan".into(), rhs: Expr::sig("st").add(Expr::lit(1, 2)) });
    // A register that only recycles its own value (SL0507).
    m.items.push(Item::Process(Process {
        label: "keep".into(),
        clocked: true,
        body: vec![Stmt::assign("hold", Expr::sig("hold"))],
    }));
    m.items.push(Item::Assign { lhs: "Q".into(), rhs: Expr::sig("hold") });

    let mut t = Module::new("twist");
    t.ports = vec![Port::input("CLK", 1), Port::input("RST", 1), Port::output("TICK", 1)];
    t.decls = vec![Decl::Signal { name: "tog".into(), width: 1, init: None }];
    t.items.push(Item::Process(Process {
        label: "flip".into(),
        clocked: true,
        body: vec![Stmt::if_else(
            Expr::sig("RST"),
            vec![Stmt::assign("tog", Expr::lit(0, 1))],
            vec![Stmt::assign("tog", Expr::sig("tog").not())],
        )],
    }));
    // Second, concurrent driver: the module has no transition relation.
    t.items.push(Item::Assign { lhs: "tog".into(), rhs: Expr::lit(1, 1) });
    t.items.push(Item::Assign { lhs: "TICK".into(), rhs: Expr::sig("tog") });

    vec![m, t]
}

#[test]
fn dataflow_dirty_fixture_report_matches_golden() {
    let modules = dataflow_fixture_modules();
    let mut report = LintReport::new();
    lint_dataflow(&modules, &mut report);
    for code in ["SL0500", "SL0501", "SL0502", "SL0503", "SL0504", "SL0505", "SL0506", "SL0507"] {
        assert!(report.has(code), "missing {code}:\n{}", report.render_text());
    }
    let (txt, json) = (report.render_text(), report.render_json());
    if std::env::var_os("SPLICE_BLESS").is_some() {
        std::fs::write(repo_path("tests/golden/lint/dataflow_dirty.txt"), &txt).unwrap();
        std::fs::write(repo_path("tests/golden/lint/dataflow_dirty.json"), &json).unwrap();
    }
    assert_eq!(txt, golden("dataflow_dirty.txt"));
    assert_eq!(json, golden("dataflow_dirty.json"));
}

/// Build the generated module set for the MAC example and hand it back for
/// corruption.
fn mac_modules() -> Vec<splice_hdl::Module> {
    let source = std::fs::read_to_string(repo_path("examples/specs/mac.splice")).unwrap();
    let validated = splice_spec::parse_and_validate(&source).expect("example is valid");
    design_modules(&elaborate(&validated.module), "lint-test").expect("example generates")
}

#[test]
fn corrupted_design_combinational_loop_is_caught_with_its_path() {
    let mut modules = mac_modules();
    let stub = modules.iter_mut().find(|m| m.name == "func_mac").expect("mac stub");
    // Two continuous assignments feeding each other: a classic comb loop.
    stub.decls.push(Decl::Signal { name: "loop_a".into(), width: 1, init: None });
    stub.decls.push(Decl::Signal { name: "loop_b".into(), width: 1, init: None });
    stub.items.push(Item::Assign { lhs: "loop_a".into(), rhs: Expr::sig("loop_b") });
    stub.items.push(Item::Assign { lhs: "loop_b".into(), rhs: Expr::sig("loop_a") });

    let mut report = LintReport::new();
    lint_modules(&modules, &mut report);
    let d = report.diagnostics.iter().find(|d| d.code == "SL0308").expect("loop detected");
    assert!(d.message.contains("loop_a") && d.message.contains("loop_b"), "{}", d.message);
    assert!(d.message.contains(" -> "), "cycle path rendered: {}", d.message);
    assert!(d.location.to_string().starts_with("func_mac."), "{}", d.location);
}

#[test]
fn corrupted_design_double_driver_is_caught_with_both_sites() {
    let mut modules = mac_modules();
    let stub = modules.iter_mut().find(|m| m.name == "func_mac").expect("mac stub");
    // `cur_state` is owned by the clocked `smb` process; add a second,
    // concurrent driver.
    stub.items.push(Item::Assign { lhs: "cur_state".into(), rhs: Expr::sig("next_state") });

    let mut report = LintReport::new();
    lint_modules(&modules, &mut report);
    let d = report.diagnostics.iter().find(|d| d.code == "SL0301").expect("conflict detected");
    assert_eq!(d.location.to_string(), "func_mac.cur_state");
    assert!(d.message.contains("2 drivers"), "{}", d.message);
    assert!(d.message.contains("process `smb`"), "{}", d.message);
    assert!(d.message.contains("continuous assignment"), "{}", d.message);
}

#[test]
fn lint_report_names_at_least_ten_distinct_rules() {
    // The catalogue itself: ten or more distinct codes must be reachable.
    // (Unit tests per rule live in the splice-lint crate; this pins the
    // public registry the documentation is checked against.)
    assert!(splice_lint::CODES.len() >= 10, "{}", splice_lint::CODES.len());
}

#[test]
fn docs_catalogue_every_rule_code() {
    let docs = std::fs::read_to_string(repo_path("docs/lint.md")).expect("docs/lint.md exists");
    for (code, _) in splice_lint::CODES {
        assert!(docs.contains(code), "docs/lint.md does not document {code}");
    }
}
