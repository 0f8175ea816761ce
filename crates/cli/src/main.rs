//! The `splice` command-line tool.
//!
//! Mirrors the thesis's workflow: a specification file goes in, a
//! `<device_name>/` directory of generated HDL and driver sources comes
//! out (Fig 8.3's hardware files and Fig 8.7's software files). The tool
//! refuses to proceed on specification errors, warns before reusing an
//! existing output directory (§3.2.3), and prints the §5.3.1 generation
//! notes.
//!
//! Every run also performs a post-generation lint (`splice-lint`): the
//! spec, the elaborated IR and the generated module ASTs are checked for
//! semantic defects — lint errors abort generation, and `--deny-warnings`
//! promotes warnings for CI. `splice lint <spec>` prints the lint report
//! without generating anything.
//!
//! `splice check <spec>` (or `--check` during generation) goes further
//! than lint: it model-checks the generated FSMs against the SIS protocol
//! (`splice-check`) and cross-checks the C driver against the HDL.
//!
//! `splice timing <spec>` prints the structural timing report: per-module
//! unit-delay logic depth, named critical paths (register → gates →
//! register/port), fan-out hot spots, and the netlist-grade resource bill
//! compared against the IR estimate. `--json` renders it as a document,
//! and `--top <n>` bounds the paths per module.
//!
//! `splice profile <spec>` builds the generated design into a live
//! simulation, drives one driver call per declared function, and prints
//! the kernel's per-component profile (ticks, wake causes, awake/asleep
//! attribution). With `--trace-out <f>` both the generation pipeline's
//! span tree and the kernel's per-component lanes land in one Chrome
//! trace-event JSON file, loadable in Perfetto; in every other mode
//! `--trace-out` writes the pipeline spans only.
//!
//! `splice serve --socket <path>` runs the generation pipeline as a
//! long-lived daemon over a Unix socket, dispatching jobs to a supervised
//! pool of worker processes (`splice-serve`; see `docs/serve.md`).
//!
//! Every mode runs the one pipeline (`splice::run_pipeline`) and prints
//! a view of its output, so every mode gives the same verdict on a spec:
//! one gate (`PipelineOutput::denial`) refuses a design lint refuses, or
//! one whose model check fails, and `--deny-warnings` refuses warnings
//! too. `check` and `timing` print their report, then apply the gate.
//!
//! Exit codes are structured for scripting: `0` success, `1` diagnostics
//! denied the run (spec/lint/check findings), `2` usage errors (bad
//! flags, a flag outside the modes that read it, unreadable spec), `3`
//! internal failures (generation phases, I/O on outputs). Long-running
//! subcommands (`check`, `profile`, `serve`) honor Ctrl-C at phase
//! boundaries and flush partial reports.
//!
//! ```text
//! USAGE:
//!   splice [OPTIONS] <spec-file>
//!   splice lint [OPTIONS] <spec-file>
//!   splice check [OPTIONS] <spec-file>
//!   splice timing [OPTIONS] <spec-file>
//!   splice profile [OPTIONS] <spec-file>
//!   splice serve [OPTIONS]
//! ```

use splice::pipeline::{run_pipeline, PipelineError, PipelineOptions, PipelineOutput};
use splice::prelude::*;
use splice_buses::builtin_libraries;
use splice_core::api::BusLibraryRegistry;
use splice_driver::program::CallValue;
use splice_lint::{Diagnostic, Layer, LintReport, Location};
use splice_obs::trace;
use splice_resources::design_cost;
use splice_sim::Backend;
use splice_spec::span::line_col;
use splice_spec::validate::{IoBound, ValidatedFunction};
use std::io::{BufRead, Write};
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a run produces; picked by the subcommand.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Write the generated HDL and drivers (no subcommand).
    Generate,
    /// Print the lint report.
    Lint,
    /// Print the model-check outcome.
    Check,
    /// Print the structural timing report.
    Timing,
    /// Simulate a workload and print the kernel profile.
    Profile,
}

struct Options {
    mode: Mode,
    spec_file: PathBuf,
    out_dir: PathBuf,
    force: bool,
    dry_run: bool,
    resources: bool,
    linux: bool,
    metrics: Option<PathBuf>,
    /// Whether the run model-checks: `splice check`, or `--check` on
    /// generation or profiling.
    check: bool,
    check_opts: splice_check::CheckOptions,
    /// Kernel scheduling for `splice profile`.
    backend: Backend,
    deny_warnings: bool,
    json: bool,
    trace_out: Option<PathBuf>,
    /// Workload rounds for `splice profile`.
    calls: u64,
    /// Critical paths reported per module by `splice timing`.
    top_paths: usize,
}

const USAGE: &str = "\
splice — a standardized peripheral logic and interface creation engine

USAGE:
  splice [OPTIONS] <spec-file>          generate HDL + drivers (lints first)
  splice lint [OPTIONS] <spec-file>     print the lint report, no generation
  splice check [OPTIONS] <spec-file>    model-check the generated design, no output
  splice timing [OPTIONS] <spec-file>   structural timing report: logic depth,
                                        critical paths, fan-out, netlist cost
  splice profile [OPTIONS] <spec-file>  simulate a per-function workload and
                                        print the kernel's component profile
  splice serve --socket <path>          run the generation pipeline as a daemon
                                        with a supervised worker pool (tuning
                                        flags: --workers, --queue-cap,
                                        --deadline-ms, …; see docs/serve.md)

OPTIONS (every mode):
      --deny-warnings   treat lint/check warnings as errors (CI)
      --trace-out <f>   write a Chrome trace-event JSON (Perfetto) of the
                        generation pipeline — and, in profile mode, of the
                        simulation kernel's per-component lanes
      --explain <code>  print the catalogue entry for one rule code and exit
                        (e.g. `splice lint --explain SL0502`; no spec needed)
      --list-buses      list the registered bus libraries and exit
  -h, --help            show this help

GENERATION OPTIONS (no subcommand):
  -o, --out <dir>       parent directory for the device subdirectory (default .)
  -f, --force           overwrite an existing device directory without asking
  -n, --dry-run         print what would be generated without writing files
      --resources       print the estimated FPGA resource bill
      --linux           also emit splice_lib_linux.h (mmap-based user-space driver)
      --metrics <f>     write generation-pipeline metrics to <f> as JSON
      --check           model-check the design before generating (see `splice check`)

REPORT OPTIONS (lint, check and timing modes):
      --json            render the report as JSON

CHECK OPTIONS (check mode; generation or profile mode with --check):
      --bound <n>       handshake response bound in steps (default 16)
      --max-states <n>  distinct-state budget per exploration (default 50000)
      --max-depth <n>   exploration horizon past reset (default 64); the
                        three budgets must be at least 1. Every module is
                        explored as generated, and every counterexample is
                        replayed in the two-state domain

TIMING OPTIONS (timing mode):
      --top <n>         critical paths reported per module (default 3)

PROFILE OPTIONS (profile mode):
      --calls <n>       workload rounds (one driver call per function each
                        round; default 1, at least 1)
      --backend <b>     kernel scheduling: gated (default) or eager; the
                        profiler times every tick under the selected one
      --check           model-check the design before profiling

A flag used outside the modes that read it exits 2.

Every mode lints the design and gives the same verdict on a spec: a
spec error, a lint error or a failed model check exits 1, and so does
any warning under --deny-warnings. check and timing print their report,
then refuse what lint refuses.

Lint rule codes are catalogued in docs/lint.md; the model-checking
properties (SL04xx) in docs/model-checking.md; tracing and profiling in
docs/observability.md.
";

/// Structured CLI failure: the variant decides the process exit code, so
/// scripts (and the exit-code pinning test) can tell "your input was
/// rejected by diagnostics" from "you invoked me wrong" from "I broke".
#[derive(Debug)]
enum CliError {
    /// Diagnostics denied the run (spec errors, lint/check gate) — exit 1.
    Diag(String),
    /// The invocation itself was wrong (flags, unreadable spec) — exit 2.
    Usage(String),
    /// A phase or output write failed; not the user's fault — exit 3.
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Diag(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Internal(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Diag(m) | CliError::Usage(m) | CliError::Internal(m) => m,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("splice: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut spec_file = None;
    let mut out_dir = PathBuf::from(".");
    let mut force = false;
    let mut dry_run = false;
    let mut resources = false;
    let mut linux = false;
    let mut metrics = None;
    let mut check = false;
    let mut check_opts = splice_check::CheckOptions::default();
    let mut backend = Backend::Gated;
    let mut deny_warnings = false;
    let mut json = false;
    let mut trace_out = None;
    let mut calls = 1u64;
    let mut top_paths = 3usize;
    let (mode, args) = match args.first().map(String::as_str) {
        Some("lint") => (Mode::Lint, &args[1..]),
        Some("check") => (Mode::Check, &args[1..]),
        Some("timing") => (Mode::Timing, &args[1..]),
        Some("profile") => (Mode::Profile, &args[1..]),
        _ => (Mode::Generate, args),
    };
    // Each option parses straight into its field's type, so an
    // out-of-range value is a usage error rather than a silent wrap; the
    // checker budgets and `--calls` parse as non-zero types, so a zero is
    // one too.
    fn num<T: std::str::FromStr<Err = std::num::ParseIntError>>(
        it: &mut std::slice::Iter<String>,
        opt: &str,
    ) -> Result<T, String> {
        it.next()
            .ok_or_else(|| format!("{opt} needs a numeric argument"))?
            .parse::<T>()
            .map_err(|e| format!("{opt}: {e}"))
    }
    // A flag this mode never reads is refused before its value is parsed.
    // Whether a checker budget is read depends on `--check`, which may
    // come later, so the scoped flags are checked again once all are in.
    let refusal = |flag: &str, owner: &str| format!("`{flag}` is read only by {owner}");
    let mut scoped = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some((read, owner)) = scope(a, mode, true) {
            if !read {
                return Err(refusal(a, owner));
            }
            scoped.push(a.as_str());
        }
        match a.as_str() {
            "--check" => check = true,
            "--backend" => {
                backend = match it.next().map(String::as_str) {
                    Some("eager") => Backend::Eager,
                    Some("gated") => Backend::Gated,
                    _ => return Err("--backend needs one of eager|gated".into()),
                };
            }
            "--explain" => {
                let code = it.next().ok_or("--explain needs a rule code argument")?;
                return match splice_lint::explain(code) {
                    Some(summary) => {
                        println!("{code}: {summary}");
                        println!("the full catalogue entry lives in docs/lint.md");
                        Ok(None)
                    }
                    None => Err(format!(
                        "unknown rule code `{code}`; the catalogue lives in docs/lint.md"
                    )),
                };
            }
            "--bound" => check_opts.response_bound = num::<NonZeroU32>(&mut it, "--bound")?.get(),
            "--max-states" => {
                check_opts.max_states = num::<NonZeroUsize>(&mut it, "--max-states")?.get();
            }
            "--max-depth" => {
                check_opts.max_depth = num::<NonZeroU32>(&mut it, "--max-depth")?.get();
            }
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--calls" => calls = num::<NonZeroU64>(&mut it, "--calls")?.get(),
            "--top" => top_paths = num(&mut it, "--top")?,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--list-buses" => {
                let libs = builtin_libraries();
                println!("registered bus libraries:");
                for name in libs.names() {
                    println!("  {name:10} ({})", BusLibraryRegistry::library_file_name(name));
                }
                return Ok(None);
            }
            "-o" | "--out" => {
                let dir = it.next().ok_or("--out needs a directory argument")?;
                out_dir = PathBuf::from(dir);
            }
            "-f" | "--force" => force = true,
            "-n" | "--dry-run" => dry_run = true,
            "--resources" => resources = true,
            "--linux" => linux = true,
            "--metrics" => {
                let file = it.next().ok_or("--metrics needs a file argument")?;
                metrics = Some(PathBuf::from(file));
            }
            "--trace-out" => {
                let file = it.next().ok_or("--trace-out needs a file argument")?;
                trace_out = Some(PathBuf::from(file));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{USAGE}"));
            }
            file => {
                if spec_file.replace(PathBuf::from(file)).is_some() {
                    return Err("exactly one spec file expected".into());
                }
            }
        }
    }
    let check = mode == Mode::Check || check;
    for flag in scoped {
        if let Some((false, owner)) = scope(flag, mode, check) {
            return Err(refusal(flag, owner));
        }
    }
    let spec_file = spec_file.ok_or_else(|| format!("no spec file given\n{USAGE}"))?;
    Ok(Some(Options {
        mode,
        spec_file,
        out_dir,
        force,
        dry_run,
        resources,
        linux,
        metrics,
        check,
        check_opts,
        backend,
        deny_warnings,
        json,
        trace_out,
        calls,
        top_paths,
    }))
}

/// For a flag only some modes read: whether a run in `mode` reads it
/// (`checks`: the run model-checks) and the modes that do, as a refusal
/// names them. `None` for the flags every mode reads.
fn scope(flag: &str, mode: Mode, checks: bool) -> Option<(bool, &'static str)> {
    use Mode::*;
    Some(match flag {
        "-o" | "--out" | "-f" | "--force" | "-n" | "--dry-run" | "--resources" | "--linux"
        | "--metrics" => (mode == Generate, "generation"),
        "--json" => (matches!(mode, Lint | Check | Timing), "`splice lint`, `check` and `timing`"),
        "--top" => (mode == Timing, "`splice timing`"),
        "--calls" | "--backend" => (mode == Profile, "`splice profile`"),
        "--check" => (matches!(mode, Generate | Profile), "generation and `splice profile`"),
        "--bound" | "--max-states" | "--max-depth" => {
            (checks, "`splice check`, and generation or `splice profile` with `--check`")
        }
        _ => return None,
    })
}

/// What `splice lint` prints for a run: the pipeline's lint report or, on
/// a refused spec, its spec-layer findings then one SL0100 per error,
/// located in the source. `None` when the pipeline failed internally.
fn lint_view(result: &Result<PipelineOutput, PipelineError>, source: &str) -> Option<LintReport> {
    let (lint, errors) = match result {
        Ok(out) => return Some(out.lint.clone()),
        Err(PipelineError::Spec { errors, lint }) => (lint, errors),
        Err(PipelineError::Phase(_)) => return None,
    };
    let mut report = lint.clone();
    for e in errors {
        let lc = line_col(source, e.span.start);
        report.push(Diagnostic::error(
            "SL0100",
            Layer::Spec,
            Location::Source { line: lc.line, col: lc.col },
            e.kind.to_string(),
        ));
    }
    Some(report)
}

/// The one gate, as every mode applies it: show on stderr the findings
/// this mode does not print as its product, then refuse the run if
/// [`PipelineOutput::denial`] names a report.
fn gate(out: &PipelineOutput, opts: &Options) -> Result<(), CliError> {
    if opts.mode != Mode::Lint && !out.lint.is_clean() {
        eprint!("{}", out.lint.render_text());
    }
    if let Some(check) = &out.check {
        if opts.mode != Mode::Check && !check.report.is_clean() {
            eprint!("{}", check.render_text());
        }
    }
    match out.denial(opts.deny_warnings) {
        None => Ok(()),
        Some((phase, report)) => Err(CliError::Diag(format!(
            "{phase} reported {} error(s) and {} warning(s); nothing generated",
            report.error_count(),
            report.warning_count()
        ))),
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    // `splice serve …` has its own flag set (and a hidden worker mode);
    // dispatch before the generation-oriented parser sees the args.
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve(&args[1..]);
    }
    // Every other mode is a filter over stdout: when the reader hangs up
    // (`splice lint … | head`), end quietly on SIGPIPE instead of
    // panicking on EPIPE. The daemon and its workers, dispatched above,
    // keep the runtime's SIG_IGN so a client hang-up stays an error.
    splice_obs::interrupt::default_sigpipe();

    let Some(mut opts) = parse_args(args).map_err(CliError::Usage)? else {
        return Ok(ExitCode::SUCCESS);
    };

    // Long-running analysis modes honor Ctrl-C at phase boundaries: the
    // BFS polls the flag and reports an interrupted (prefix-only) result
    // instead of dying mid-exploration.
    if opts.check || opts.mode == Mode::Profile {
        splice_obs::interrupt::install_sigint();
        opts.check_opts.stop = Some(splice_obs::interrupt::interrupted);
    }

    let source = std::fs::read_to_string(&opts.spec_file)
        .map_err(|e| CliError::Usage(format!("cannot read {}: {e}", opts.spec_file.display())))?;
    let spec_path = opts.spec_file.display().to_string();

    if opts.trace_out.is_some() {
        trace::start();
    }
    let popts = PipelineOptions {
        gen_date: gen_date(),
        linux: opts.linux,
        check: opts.check.then_some(opts.check_opts),
        deny_warnings: opts.deny_warnings,
    };
    let result = run_pipeline(&source, &spec_path, &popts);

    // The report modes print their view of the run before the gate, so a
    // refused run still shows its report.
    let json = opts.json;
    if opts.mode == Mode::Lint {
        if let Some(report) = lint_view(&result, &source) {
            print!("{}", if json { report.render_json() } else { report.render_text() });
        }
    }
    let out = match result {
        Ok(out) => out,
        Err(PipelineError::Spec { errors, .. }) => {
            if opts.mode != Mode::Lint {
                for e in &errors {
                    eprintln!("{}", e.render_at(&source, &spec_path));
                }
            }
            return Err(CliError::Diag(format!(
                "{} specification error(s); nothing generated",
                errors.len()
            )));
        }
        Err(PipelineError::Phase(msg)) => return Err(CliError::Internal(msg)),
    };
    match opts.mode {
        Mode::Check => {
            if let Some(c) = &out.check {
                print!("{}", if json { c.render_json() } else { c.render_text() });
            }
        }
        Mode::Timing => {
            let report = splice::timing_report(&out.ir, &out.modules, opts.top_paths)
                .map_err(CliError::Internal)?;
            print!("{}", if json { report.render_json() } else { report.render_text() });
        }
        Mode::Generate | Mode::Lint | Mode::Profile => {}
    }
    // The report modes keep stdout for the report alone.
    if matches!(opts.mode, Mode::Lint | Mode::Check | Mode::Timing) {
        write_pipeline_trace(&opts)?;
    }
    gate(&out, &opts)?;
    match opts.mode {
        Mode::Generate => generate(&out, &opts),
        Mode::Profile => profile(&out, &opts),
        Mode::Lint | Mode::Check | Mode::Timing => Ok(ExitCode::SUCCESS),
    }
}

/// Generation: print the notes and requested reports, then write the
/// device directory (or, with `--dry-run`, list what it would hold).
fn generate(out: &PipelineOutput, opts: &Options) -> Result<ExitCode, CliError> {
    if let Some(path) = write_pipeline_trace(opts)? {
        println!("pipeline trace written to {}", path.display());
    }

    let module = &out.module;
    let ir = &out.ir;
    let hw = &out.hw;
    let sw = &out.sw;
    let dev = module.params.device_name.clone();

    for note in &ir.notes {
        println!("note: {note}");
    }

    // Generation-pipeline metrics: the same registry the simulator uses,
    // here tallying what the front/back end just produced.
    if let Some(path) = &opts.metrics {
        let mut reg = splice_obs::metrics::MetricsRegistry::new();
        reg.enable();
        reg.gauge_set("gen.functions", module.functions.len() as u64);
        reg.gauge_set("gen.instances", ir.total_instances() as u64);
        reg.gauge_set("gen.notes", ir.notes.len() as u64);
        reg.gauge_set("gen.hw_files", hw.len() as u64);
        reg.gauge_set("gen.sw_files", sw.len() as u64);
        reg.gauge_set("gen.resource_slices", design_cost(ir).total().slices() as u64);
        for f in hw {
            reg.counter_add("gen.hw_bytes", f.text.len() as u64);
            reg.observe("gen.file_bytes", f.text.len() as u64);
        }
        for (_, text) in sw {
            reg.counter_add("gen.sw_bytes", text.len() as u64);
            reg.observe("gen.file_bytes", text.len() as u64);
        }
        write_file(path, &reg.to_json())?;
        println!("generation metrics written to {}", path.display());
    }

    if opts.resources {
        let report = design_cost(ir);
        println!("estimated FPGA resources:");
        for (name, cost) in &report.items {
            println!("  {name:28} {cost}");
        }
        println!("  {:28} {}", "TOTAL", report.total());
    }

    let device_dir = opts.out_dir.join(&dev);
    if opts.dry_run {
        println!("would generate into {}:", device_dir.display());
        for f in hw {
            println!("  {} ({} bytes)", f.name, f.text.len());
        }
        for (name, text) in sw {
            println!("  {} ({} bytes)", name, text.len());
        }
        return Ok(ExitCode::SUCCESS);
    }

    // §3.2.3: warn and confirm when the device directory already exists.
    if device_dir.exists() && !opts.force {
        eprint!(
            "warning: {} already exists; overwrite its generated files? [y/N] ",
            device_dir.display()
        );
        std::io::stderr().flush().ok();
        let mut line = String::new();
        std::io::stdin().lock().read_line(&mut line).ok();
        if !matches!(line.trim(), "y" | "Y" | "yes") {
            return Err(CliError::Diag("aborted by user".into()));
        }
    }
    std::fs::create_dir_all(&device_dir)
        .map_err(|e| CliError::Internal(format!("cannot create {}: {e}", device_dir.display())))?;

    let mut written = 0usize;
    for f in hw {
        write_file(&device_dir.join(&f.name), &f.text)?;
        written += 1;
    }
    for (name, text) in sw {
        write_file(&device_dir.join(name), text)?;
        written += 1;
    }
    println!("generated {written} files for device `{dev}` into {}", device_dir.display());
    Ok(ExitCode::SUCCESS)
}

/// Synthesize plausible arguments for one driver call to `f`: scalars get
/// small distinct values, arrays get ramps sized from their bound (implicit
/// bounds use a few elements, with the index parameter set to match).
fn synth_args(f: &ValidatedFunction) -> CallArgs {
    // Element count for the implicit array indexed by parameter `i`, if any
    // (searching the output too — `int f(int n)` returning `*:n`).
    let implicit_len = |i: usize| -> Option<u64> {
        f.inputs.iter().map(|io| &io.bound).chain(f.output.iter().map(|io| &io.bound)).find_map(
            |b| match *b {
                IoBound::Implicit { index_param, max_hint } if index_param == i => {
                    Some(max_hint.clamp(1, 4))
                }
                _ => None,
            },
        )
    };
    let values = f
        .inputs
        .iter()
        .enumerate()
        .map(|(i, io)| {
            if io.is_pointer {
                let n = match io.bound {
                    IoBound::Scalar => 1,
                    IoBound::Explicit(n) => n,
                    IoBound::Implicit { max_hint, .. } => max_hint.clamp(1, 4),
                };
                CallValue::Array((1..=n).collect())
            } else if io.used_as_index {
                CallValue::Scalar(implicit_len(i).unwrap_or(1))
            } else {
                CallValue::Scalar(i as u64 + 1)
            }
        })
        .collect();
    CallArgs::new(values)
}

/// `splice profile <spec>`: bring the design to life with the default
/// calculation logic, drive one call per function (times `--calls`), and
/// print the kernel's per-component attribution.
fn profile(out: &PipelineOutput, opts: &Options) -> Result<ExitCode, CliError> {
    let module = &out.module;

    let _workload = trace::span("workload");
    let mut sys = SplicedSystem::build(module, |_, _| Box::new(DefaultCalc));
    sys.sim_mut().set_backend(opts.backend);
    sys.sim_mut().enable_profiler();

    let irq = module.params.irq;
    let mut calls = 0u64;
    let mut interrupted = false;
    'rounds: for round in 0..opts.calls {
        for f in &module.functions {
            // Ctrl-C lands between driver calls: stop the workload here
            // and still flush the partial profile (and trace) below.
            if splice_obs::interrupt::interrupted() {
                interrupted = true;
                break 'rounds;
            }
            let _sp = trace::span("call");
            trace::attr("function", f.name.as_str());
            trace::attr("round", round);
            let start_cycle = sys.sim().cycle();
            let outcome = sys
                .call(&f.name, &synth_args(f))
                .map_err(|e| CliError::Internal(format!("driver call `{}` failed: {e}", f.name)))?;
            let mut cycles = outcome.bus_cycles;
            if f.nowait && irq {
                // The call returned before completion; wait for its IRQ so
                // the profile covers the background computation too.
                cycles += sys.wait_irq(&f.name, 0).map_err(|e| {
                    CliError::Internal(format!("wait_irq `{}` failed: {e}", f.name))
                })?;
            }
            trace::cycles(start_cycle, sys.sim().cycle());
            trace::attr("bus_cycles", cycles);
            calls += 1;
        }
    }
    // Let any remaining background computation (nowait without IRQ) drain,
    // and show the idle fast path in the profile.
    sys.sim_mut().run(200).map_err(|e| CliError::Internal(format!("drain run failed: {e}")))?;
    let end_cycle = sys.sim().cycle();
    trace::cycles(0, end_cycle);
    drop(_workload);

    let profile = sys.sim_mut().take_profile().expect("profiler was enabled");
    let stats = splice_sim::RunStats {
        cycles: profile.steps,
        ticks: profile.components.iter().map(|c| c.ticks).sum(),
        idle_cycles: profile.idle_cycles,
    };

    if interrupted {
        println!("interrupted (SIGINT); profile covers the completed calls only");
    }
    println!(
        "profiled `{}`: {} driver call(s), {} cycles, {} ticks ({:.2} ticks/cycle), {} idle",
        module.params.device_name,
        calls,
        stats.cycles,
        stats.ticks,
        stats.ticks_per_cycle(),
        stats.idle_cycles,
    );
    print!("{}", profile.render_text());

    if let Some(path) = &opts.trace_out {
        let data = trace::finish().expect("tracer was started");
        let mut t = splice_obs::ChromeTrace::new();
        t.process_name(1, "splice pipeline");
        data.add_chrome_events(&mut t, 1, 1);
        profile.add_chrome_lanes(&mut t, 2);
        write_file(path, &t.to_json())?;
        println!("trace written to {} ({} events)", path.display(), t.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// With `--trace-out`, write the pipeline's span tree as a Chrome trace;
/// returns the path written.
fn write_pipeline_trace(opts: &Options) -> Result<Option<&Path>, CliError> {
    let Some(path) = &opts.trace_out else { return Ok(None) };
    let data = trace::finish().expect("tracer was started");
    write_file(path, &data.to_chrome_json("splice pipeline"))?;
    Ok(Some(path))
}

fn write_file(path: &Path, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text)
        .map_err(|e| CliError::Internal(format!("cannot write {}: {e}", path.display())))
}

/// `splice serve …`: run the generation daemon (or, with the hidden
/// `--worker` flag, the worker loop the daemon re-execs). The flags are
/// parsed by `splice-serve`, shared with its standalone binary.
fn run_serve(args: &[String]) -> Result<ExitCode, CliError> {
    if args.first().map(String::as_str) == Some("--worker") {
        return Ok(ExitCode::from(splice_serve::run_worker() as u8));
    }
    let Some((socket, mut config)) = splice_serve::parse_args(args).map_err(|e| {
        CliError::Usage(format!("serve: {e}\nusage: splice serve {}", splice_serve::USAGE))
    })?
    else {
        println!("usage: splice serve {}", splice_serve::USAGE);
        return Ok(ExitCode::SUCCESS);
    };
    // Workers are this same binary re-exec'd in worker mode.
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Internal(format!("cannot locate own binary: {e}")))?;
    config.worker_cmd = vec![exe.to_string_lossy().into_owned(), "serve".into(), "--worker".into()];
    splice_serve::serve(&socket, config).map_err(|e| CliError::Internal(format!("serve: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

/// A deterministic, environment-derived generation stamp (the `%GEN_DATE%`
/// marker); overridable for reproducible golden files.
fn gen_date() -> String {
    std::env::var("SPLICE_GEN_DATE")
        .unwrap_or_else(|_| format!("splice {} build", env!("CARGO_PKG_VERSION")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_lint::Severity;

    const CLEAN: &str =
        "%bus_type fcb\n%bus_width 32\n%device_name lint_dev\nint mac(int a, int b);\n";

    /// The report `splice lint` prints for `source`.
    fn lint(source: &str) -> LintReport {
        let result = run_pipeline(source, "lint.splice", &PipelineOptions::default());
        lint_view(&result, source).expect("the pipeline ran")
    }

    #[test]
    fn clean_spec_lints_clean_end_to_end() {
        let r = lint(CLEAN);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn lint_design_covers_ir_and_hdl() {
        let result = run_pipeline(CLEAN, "lint.splice", &PipelineOptions::default());
        let r = lint_view(&result, CLEAN).expect("the pipeline ran");
        assert!(r.is_clean(), "{}", r.render_text());
        let out = result.expect("valid");
        assert!(!out.modules.is_empty(), "no HDL module reached the lint");
    }

    #[test]
    fn parse_failure_becomes_sl0100_with_position() {
        let r = lint("%bus_type fcb\nint f(int a;\n");
        assert!(r.has("SL0100"), "{}", r.render_text());
        let d = &r.diagnostics[0];
        assert!(matches!(d.location, Location::Source { line: 2, .. }), "{:?}", d.location);
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn validate_failure_becomes_sl0100() {
        // FCB supports no DMA: validation rejects the `^` transfer.
        let r = lint("%bus_type fcb\nvoid push(int^ data[8]);\n");
        assert!(r.has("SL0100"), "{}", r.render_text());
    }

    #[test]
    fn spec_rules_still_run_when_validation_would_pass() {
        let src = "%bus_type plb\n%bus_width 32\n%device_name lint_dev\n%base_address 0xFFFFFFFC\nint f(int a);\nint g(int b);\n";
        let r = lint(src);
        assert!(r.has("SL0101"), "{}", r.render_text());
    }
}
