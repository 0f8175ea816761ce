//! Integration tests of the structural timing analysis (`splice::timing`
//! and the SL06xx lint family).
//!
//! Three claims are pinned here:
//!
//! 1. **Golden reports**: the rendered timing report (text and JSON) for
//!    every spec under `examples/specs/` is pinned byte-for-byte under
//!    `tests/golden/timing/` (re-bless with `SPLICE_BLESS=1`).
//! 2. **Named critical paths**: every generated module reports a non-zero
//!    logic depth and a critical path spelled as a chain of signal names
//!    ending at its endpoint.
//! 3. **Netlist vs estimate**: the netlist-grade resource bill of the
//!    flattened arbiter stays within the SL0604 tolerance of the IR-level
//!    heuristic estimate, for every example spec — the cross-check the
//!    lint rule gates on holds on real designs, not just fixtures.

use splice::TimingReport;
use splice_core::elaborate::elaborate;
use splice_lint::timing_rules::{ESTIMATE_TOLERANCE, MAX_DEPTH};
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

fn report_for(source: &str) -> TimingReport {
    let validated = splice_spec::parse_and_validate(source).expect("example is valid");
    let ir = elaborate(&validated.module);
    splice::design_timing(&ir, 3).expect("timing analysis runs")
}

fn golden(name: &str) -> String {
    let path = repo_path("tests/golden/timing").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

#[test]
fn example_timing_reports_match_goldens() {
    for (stem, source) in example_specs() {
        let report = report_for(&source);
        let (txt, json) = (report.render_text(), report.render_json());
        if std::env::var_os("SPLICE_BLESS").is_some() {
            let dir = repo_path("tests/golden/timing");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(format!("{stem}.txt")), &txt).unwrap();
            std::fs::write(dir.join(format!("{stem}.json")), &json).unwrap();
        }
        assert_eq!(txt, golden(&format!("{stem}.txt")), "{stem} text report");
        assert_eq!(json, golden(&format!("{stem}.json")), "{stem} json report");
    }
}

#[test]
fn every_example_module_reports_a_named_critical_path() {
    for (stem, source) in example_specs() {
        let report = report_for(&source);
        assert!(!report.modules.is_empty(), "{stem}: no modules");
        for m in &report.modules {
            assert!(m.max_depth > 0, "{stem}/{}: zero logic depth", m.module);
            let p =
                m.paths.first().unwrap_or_else(|| panic!("{stem}/{}: no critical path", m.module));
            assert_eq!(p.depth, m.max_depth, "{stem}/{}", m.module);
            assert!(!p.chain.is_empty(), "{stem}/{}: empty chain", m.module);
            assert_eq!(p.chain.last().unwrap(), &p.endpoint, "{stem}/{}", m.module);
            assert!(p.kind == "register" || p.kind == "output", "{stem}/{}", m.module);
        }
    }
}

#[test]
fn example_depths_fit_the_default_budget() {
    // The SL0600 budget was calibrated against the generator's own output;
    // if a generator change deepens the logic past it, `--deny-warnings`
    // CI runs start failing, so pin the headroom explicitly.
    let budget = MAX_DEPTH;
    for (stem, source) in example_specs() {
        let report = report_for(&source);
        for m in &report.modules {
            assert!(
                m.max_depth <= budget,
                "{stem}/{}: depth {} exceeds the SL0600 budget {budget}",
                m.module,
                m.max_depth
            );
        }
    }
}

#[test]
fn netlist_bill_tracks_ir_estimate_within_tolerance() {
    let tolerance = ESTIMATE_TOLERANCE;
    for (stem, source) in example_specs() {
        let report = report_for(&source);
        let (actual, estimate) = (report.netlist.slices(), report.estimate.slices());
        assert!(actual > 0, "{stem}: empty netlist bill");
        assert!(estimate > 0, "{stem}: empty IR estimate");
        let ratio = (actual.max(estimate) as f64) / (actual.min(estimate) as f64);
        assert!(
            ratio <= tolerance,
            "{stem}: netlist {actual} slices vs estimate {estimate} slices \
             (x{ratio:.2} apart, SL0604 tolerance is x{tolerance})"
        );
    }
}
