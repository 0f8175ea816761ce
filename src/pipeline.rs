//! The end-to-end generation pipeline as a library.
//!
//! This is the only path from spec text to a design. Every `splice` mode,
//! the `splice-serve` worker and the trace golden tests run the same
//! sequence — parse → validate → elaborate → hdlgen → lint → (check) →
//! drivergen — and render a view of its output. It is instrumented with
//! [`splice_obs::trace`] spans. When a tracer is active
//! (`splice_obs::trace::start()`), every phase becomes a span carrying the
//! load-bearing numbers of that phase (function/instance counts, file
//! sizes, lint verdicts, exploration statistics); when no tracer is
//! installed the instrumentation costs one relaxed atomic load per span.
//!
//! The pipeline itself never prints: lint and check findings come back in
//! [`PipelineOutput`], and every caller applies the one gate,
//! [`PipelineOutput::denial`], to decide whether the run is refused. The
//! pipeline applies the lint half of that gate itself: the model checker
//! only runs when lint passed, since checking a design that lint already
//! rejected wastes the (comparatively expensive) exploration.

use splice_buses::builtin_libraries;
use splice_check::{CheckOptions, CheckOutcome};
use splice_core::elaborate::elaborate;
use splice_core::hdlgen::{design_modules, render_hardware, GeneratedFile, HdlGenError};
use splice_core::DesignIr;
use splice_driver::cgen::{driver_header, driver_source};
use splice_hdl::ast::Module;
use splice_lint::LintReport;
use splice_obs::trace;
use splice_spec::{SpecError, SpecErrorKind};

/// What to run and how, beyond the always-on phases.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// The `%GEN_DATE%` stamp embedded in generated files.
    pub gen_date: String,
    /// Also emit the mmap-based Linux user-space header.
    pub linux: bool,
    /// Run the model checker (with these bounds) after lint.
    pub check: Option<CheckOptions>,
    /// Treat lint warnings as failures when gating the check phase.
    pub deny_warnings: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            gen_date: "splice build".into(),
            linux: false,
            check: None,
            deny_warnings: false,
        }
    }
}

/// Everything a successful pipeline run produced.
pub struct PipelineOutput {
    /// The elaborated design, holding the validated device module
    /// (`ir.module`).
    pub ir: DesignIr,
    /// Generated HDL files, rendered from `modules`.
    pub hw: Vec<GeneratedFile>,
    /// The design's module ASTs (what lint/check analysed).
    pub modules: Vec<Module>,
    /// Generated software files as `(name, text)`.
    pub sw: Vec<(String, String)>,
    /// The post-generation lint report (callers decide what fails).
    pub lint: LintReport,
    /// Model-check outcome; `None` when not requested or when lint failed.
    pub check: Option<CheckOutcome>,
}

impl PipelineOutput {
    /// The one gate every caller applies: the report that refuses this run
    /// under `deny_warnings`, named by the phase that produced it. Lint is
    /// asked first, then the model check.
    pub fn denial(&self, deny_warnings: bool) -> Option<(&'static str, &LintReport)> {
        if self.lint.fails(deny_warnings) {
            return Some(("lint", &self.lint));
        }
        let check = &self.check.as_ref()?.report;
        check.fails(deny_warnings).then_some(("model check", check))
    }
}

/// Why the pipeline stopped before producing output.
#[derive(Debug)]
pub enum PipelineError {
    /// The spec does not parse, validate, or pass its bus library's
    /// parameter check (§7.1.2). Each caller renders `errors` against the
    /// source. `lint` holds the spec-layer findings of a spec that parsed,
    /// so `splice lint` still reports them.
    Spec {
        /// The errors, located in the source.
        errors: Vec<SpecError>,
        /// Spec-layer (SL01xx) findings; empty when the spec did not parse.
        lint: LintReport,
    },
    /// A later phase failed outright; the message names the phase.
    Phase(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Spec { errors, .. } => {
                write!(f, "{} specification error(s)", errors.len())
            }
            PipelineError::Phase(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Run the generation pipeline over `source` (read from `spec_path`, used
/// only for trace attributes).
pub fn run_pipeline(
    source: &str,
    spec_path: &str,
    opts: &PipelineOptions,
) -> Result<PipelineOutput, PipelineError> {
    let _root = trace::span("pipeline");
    trace::attr("spec", spec_path);

    let libs = builtin_libraries();
    let registry = libs.spec_registry();

    let spec = {
        let _sp = trace::span("parse");
        trace::attr("bytes", source.len() as u64);
        splice_spec::parser::parse(source)
            .map_err(|errors| PipelineError::Spec { errors, lint: LintReport::new() })?
    };

    // The spec layer lints before validation, so a spec that validation
    // refuses still gets its SL01xx findings.
    let mut lint = LintReport::new();
    splice_lint::lint_spec(&spec, source, &registry, &mut lint);

    let module = {
        let _sp = trace::span("validate");
        let module = match splice_spec::validate::validate(&spec, &registry) {
            Ok(validated) => validated.module,
            Err(e) => return Err(PipelineError::Spec { errors: vec![e], lint }),
        };
        trace::attr("device", module.params.device_name.as_str());
        trace::attr("bus", module.params.bus.kind.name());
        trace::attr("functions", module.functions.len() as u64);
        module
    };
    trace::attr("device", module.params.device_name.as_str());
    trace::attr("bus", module.params.bus.kind.name());

    // Bus library parameter check (§7.1.2) rides with validation: a
    // refusal is a spec error at the `%bus_type` directive.
    let bus_name = module.params.bus.kind.name().to_owned();
    let lib = libs.get(&bus_name).ok_or_else(|| {
        PipelineError::Phase(format!("no interface library for bus `{bus_name}`"))
    })?;
    if let Err(reason) = lib.check_params(&module) {
        let span = spec.directive("bus_type").map(|d| d.span()).unwrap_or_default();
        let kind = SpecErrorKind::BusLibraryRejected { bus: bus_name, reason };
        return Err(PipelineError::Spec { errors: vec![SpecError::new(kind, span)], lint });
    }

    let ir = {
        let _sp = trace::span("elaborate");
        let ir = elaborate(&module);
        trace::attr("instances", module.total_instances() as u64);
        trace::attr("notes", ir.notes().len() as u64);
        ir
    };

    // Each module AST is built once; the HDL files are its rendering.
    let (hw, modules) = {
        let _sp = trace::span("hdlgen");
        let failed =
            |e: HdlGenError| PipelineError::Phase(format!("hardware generation failed: {e}"));
        let modules = design_modules(&ir, &opts.gen_date).map_err(failed)?;
        let template = lib.interface_template(&ir);
        let hw = render_hardware(&ir, &modules, &template, &lib.markers(&ir), &opts.gen_date)
            .map_err(failed)?;
        trace::attr("files", hw.len() as u64);
        trace::attr("bytes", hw.iter().map(|f| f.text.len() as u64).sum::<u64>());
        trace::attr("modules", modules.len() as u64);
        (hw, modules)
    };

    // Post-generation lint: generated designs must satisfy the same rules a
    // hand-written design would.
    let lint = {
        let _sp = trace::span("lint");
        splice_lint::lint_modules(&modules, &mut lint);
        splice_lint::lint_dataflow(&modules, &mut lint);
        splice_lint::lint_timing(&modules, &mut lint);
        splice_lint::lint_estimate(&ir, &modules, &mut lint);
        trace::attr("errors", lint.error_count() as u64);
        trace::attr("warnings", lint.warning_count() as u64);
        lint
    };

    let check = match &opts.check {
        Some(check_opts) if !lint.fails(opts.deny_warnings) => {
            let _sp = trace::span("check");
            let mut outcome = splice_check::check_modules(&ir, &modules, check_opts)
                .map_err(|e| PipelineError::Phase(format!("model check failed to run: {e}")))?;
            let p = &module.params;
            let lib_h = splice_driver::macros::macro_header_with_irq(
                &p.bus,
                p.bus_width,
                p.base_address,
                p.irq,
            );
            splice_check::cross_check(
                &ir,
                &modules,
                &lib_h,
                &driver_source(&module),
                &mut outcome.report,
            );
            trace::attr("errors", outcome.report.error_count() as u64);
            trace::attr("warnings", outcome.report.warning_count() as u64);
            trace::attr(
                "states_visited",
                outcome.stats.iter().map(|s| s.reachable as u64).sum::<u64>(),
            );
            trace::attr(
                "frontier_peak",
                outcome.stats.iter().map(|s| s.frontier_peak as u64).max().unwrap_or(0),
            );
            Some(outcome)
        }
        _ => None,
    };

    let sw = {
        let _sp = trace::span("drivergen");
        let p = &module.params;
        let dev = p.device_name.clone();
        let mut sw: Vec<(String, String)> = vec![
            (
                "splice_lib.h".into(),
                splice_driver::macros::macro_header_with_irq(
                    &p.bus,
                    p.bus_width,
                    p.base_address,
                    p.irq,
                ),
            ),
            (format!("{dev}_driver.h"), driver_header(&module)),
            (format!("{dev}_driver.c"), driver_source(&module)),
        ];
        if opts.linux {
            sw.push((
                "splice_lib_linux.h".into(),
                splice_driver::macros::linux_macro_header(&p.bus, p.bus_width, p.base_address),
            ));
        }
        trace::attr("files", sw.len() as u64);
        trace::attr("bytes", sw.iter().map(|(_, t)| t.len() as u64).sum::<u64>());
        sw
    };

    Ok(PipelineOutput { ir, hw, modules, sw, lint, check })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "%device_name pipedev\n%bus_type plb\n%bus_width 32\n\
                        %base_address 0x80000000\nint mac(int a, int b);\n";

    #[test]
    fn pipeline_produces_hw_sw_and_a_clean_lint() {
        let out = run_pipeline(SPEC, "test.spec", &PipelineOptions::default()).unwrap();
        assert_eq!(out.ir.module.params.device_name, "pipedev");
        assert!(!out.hw.is_empty());
        assert!(out.sw.iter().any(|(n, _)| n == "pipedev_driver.c"));
        assert!(out.lint.is_clean(), "{}", out.lint.render_text());
        assert!(out.check.is_none());
    }

    #[test]
    fn pipeline_emits_one_span_per_phase() {
        splice_obs::trace::start_with_step(1);
        let opts =
            PipelineOptions { check: Some(CheckOptions::default()), ..PipelineOptions::default() };
        run_pipeline(SPEC, "test.spec", &opts).unwrap();
        let data = splice_obs::trace::finish().unwrap();
        for phase in
            ["pipeline", "parse", "validate", "elaborate", "hdlgen", "lint", "check", "drivergen"]
        {
            assert!(data.span_named(phase).is_some(), "missing span `{phase}`");
        }
        // check.explore spans nest under check, one per explored module.
        let check_idx = data.spans.iter().position(|s| s.name == "check").unwrap() as u32;
        let explores: Vec<_> = data.spans.iter().filter(|s| s.name == "check.explore").collect();
        assert!(!explores.is_empty());
        assert!(explores.iter().all(|s| s.parent == Some(check_idx)));
    }

    #[test]
    fn parse_errors_come_back_rendered() {
        let source = "%bogus\n";
        let Err(err) = run_pipeline(source, "bad.spec", &PipelineOptions::default()) else {
            panic!("bogus spec must not pass");
        };
        match err {
            PipelineError::Spec { errors, lint } => {
                assert!(!errors.is_empty());
                let msg = errors[0].render_at(source, "bad.spec");
                assert!(msg.contains("bad.spec"), "{msg}");
                assert!(lint.is_clean(), "a spec that does not parse has no spec findings");
            }
            other => panic!("expected spec error, got {other:?}"),
        }
    }

    #[test]
    fn bus_library_refusal_is_a_spec_error_at_bus_type() {
        // The FCB library refuses more than 16 function instances.
        let source = "%device_name d\n%bus_type fcb\n%bus_width 32\nvoid f():17;\n";
        let Err(PipelineError::Spec { errors, .. }) =
            run_pipeline(source, "fcb.spec", &PipelineOptions::default())
        else {
            panic!("the FCB library must refuse 17 instances");
        };
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0].kind, SpecErrorKind::BusLibraryRejected { .. }), "{errors:?}");
        let msg = errors[0].render_at(source, "fcb.spec");
        assert!(msg.starts_with("fcb.spec:2:1: error:"), "{msg}");
    }
}
