//! Integration tests of the `splice` binary itself.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn splice_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_splice"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splice-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TIMER_SPEC: &str = "\
%name hw_timer
%hdl_type vhdl
%bus_type plb
%bus_width 32
%base_address 0x8000401C
%user_type llong, unsigned long long, 64
%user_type ulong, unsigned long, 32
void disable{};
void enable{};
void set_threshold{llong thold};
llong get_threshold{};
llong get_snapshot{};
ulong get_clock{};
ulong get_status{};
";

#[test]
fn generates_the_fig_8_3_and_8_7_files() {
    let dir = tmp_dir("gen");
    let spec = dir.join("timer.splice");
    std::fs::write(&spec, TIMER_SPEC).unwrap();

    let out =
        splice_bin().arg("-o").arg(&dir).arg("--force").arg(&spec).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let device = dir.join("hw_timer");
    // Fig 8.3's hardware inventory.
    for f in [
        "plb_interface.vhd",
        "user_hw_timer.vhd",
        "func_enable.vhd",
        "func_disable.vhd",
        "func_set_threshold.vhd",
        "func_get_threshold.vhd",
        "func_get_snapshot.vhd",
        "func_get_clock.vhd",
        "func_get_status.vhd",
    ] {
        assert!(device.join(f).exists(), "missing {f}");
    }
    // Fig 8.7's software inventory.
    for f in ["splice_lib.h", "hw_timer_driver.c", "hw_timer_driver.h"] {
        assert!(device.join(f).exists(), "missing {f}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dry_run_writes_nothing() {
    let dir = tmp_dir("dry");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, TIMER_SPEC).unwrap();
    let out = splice_bin().arg("-n").arg("-o").arg(&dir).arg(&spec).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("would generate"), "{stdout}");
    assert!(!dir.join("hw_timer").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resources_flag_prints_the_bill() {
    let dir = tmp_dir("res");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, TIMER_SPEC).unwrap();
    let out = splice_bin().args(["--resources", "-n", "-o"]).arg(&dir).arg(&spec).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("estimated FPGA resources"), "{stdout}");
    assert!(stdout.contains("plb_interface"), "{stdout}");
    assert!(stdout.contains("TOTAL"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_spec_reports_errors_and_fails() {
    let dir = tmp_dir("bad");
    let spec = dir.join("bad.splice");
    std::fs::write(&spec, "%bus_type plb\nvoid f(int*:x y, int x);\n").unwrap();
    let out = splice_bin().arg("-o").arg(&dir).arg(&spec).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The implicit-index ordering rule of §3.3 (validation runs after the
    // parse succeeds; missing %device_name is caught first here).
    assert!(stderr.contains("error"), "{stderr}");
    assert!(!dir.join("hw_timer").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dma_on_fcb_is_rejected_with_the_thesis_message() {
    let dir = tmp_dir("dma");
    let spec = dir.join("bad.splice");
    std::fs::write(
        &spec,
        "%device_name d\n%bus_type fcb\n%bus_width 32\n%dma_support true\nvoid f(int*:8^ x);\n",
    )
    .unwrap();
    let out = splice_bin().arg("-o").arg(&dir).arg(&spec).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DMA") || stderr.contains("dma"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_buses_names_all_seven() {
    let out = splice_bin().arg("--list-buses").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for bus in ["plb", "opb", "fcb", "apb", "ahb", "wishbone", "avalon"] {
        assert!(stdout.contains(bus), "missing {bus}: {stdout}");
    }
    assert!(stdout.contains("libplb_interface.so"), "{stdout}");
}

#[test]
fn help_prints_usage() {
    let out = splice_bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("splice lint") && stdout.contains("--deny-warnings"), "{stdout}");
}

/// Validates fine, but the register window wraps (SL0101, error) and two
/// directives are inert (SL0102/SL0105, warnings).
const DIRTY_SPEC: &str = "\
%device_name dirty
%bus_type plb
%bus_width 32
%base_address 0xFFFFFFFC
%dma_support true
int f(int a);
int g(int b);
";

/// Validates fine; only a warning-severity finding (unused user type).
const WARN_ONLY_SPEC: &str = "\
%device_name warnish
%bus_type plb
%bus_width 32
%base_address 0x80000000
%user_type spare, unsigned spare, 16
int f(int a);
";

#[test]
fn lint_subcommand_is_clean_on_a_good_spec() {
    let dir = tmp_dir("lint-clean");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, TIMER_SPEC).unwrap();
    let out = splice_bin().arg("lint").arg(&spec).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no findings"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_reports_structured_findings_and_fails_on_errors() {
    let dir = tmp_dir("lint-dirty");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, DIRTY_SPEC).unwrap();
    let out = splice_bin().arg("lint").arg(&spec).output().unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SL0101") && stdout.contains("error"), "{stdout}");
    assert!(stdout.contains("SL0105") && stdout.contains("warning"), "{stdout}");
    assert!(stdout.contains("help:"), "{stdout}");

    // JSON rendering.
    let out = splice_bin().args(["lint", "--json"]).arg(&spec).output().unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"diagnostics\""), "{stdout}");
    assert!(stdout.contains("\"code\": \"SL0101\""), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deny_warnings_promotes_warnings_to_failure() {
    let dir = tmp_dir("lint-deny");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, WARN_ONLY_SPEC).unwrap();
    let ok = splice_bin().arg("lint").arg(&spec).output().unwrap();
    assert!(ok.status.success(), "warnings alone must not fail a plain lint");
    let deny = splice_bin().args(["lint", "--deny-warnings"]).arg(&spec).output().unwrap();
    assert!(!deny.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_aborts_on_lint_errors_before_writing() {
    let dir = tmp_dir("lint-abort");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, DIRTY_SPEC).unwrap();
    let out = splice_bin().arg("-o").arg(&dir).arg("--force").arg(&spec).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SL0101"), "{stderr}");
    assert!(stderr.contains("nothing generated"), "{stderr}");
    assert!(!dir.join("dirty").exists(), "no files may be written on lint errors");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verilog_target_emits_dot_v_files() {
    let dir = tmp_dir("verilog");
    let spec = dir.join("t.splice");
    std::fs::write(
        &spec,
        "%device_name vdev\n%target_hdl verilog\n%bus_type plb\n%bus_width 32\n\
         %base_address 0x80000000\nlong f(int x);\n",
    )
    .unwrap();
    let out = splice_bin().arg("-o").arg(&dir).arg("--force").arg(&spec).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("vdev/func_f.v").exists());
    assert!(dir.join("vdev/user_vdev.v").exists());
    let text = std::fs::read_to_string(dir.join("vdev/func_f.v")).unwrap();
    assert!(text.contains("module func_f ("), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_notes_are_printed() {
    let dir = tmp_dir("notes");
    let spec = dir.join("t.splice");
    // 5 packed chars leave 24 padding bits in the final beat (§5.3.1).
    std::fs::write(
        &spec,
        "%device_name noted\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
         void f(char*:5+ x);\n",
    )
    .unwrap();
    let out = splice_bin().arg("-n").arg("-o").arg(&dir).arg(&spec).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("note:") && stdout.contains("padding"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pin the exit-code contract: 0 success, 1 diagnostics denied, 2 usage,
/// 3 internal failure. Scripts and CI depend on these numbers.
#[test]
fn exit_codes_are_pinned() {
    let dir = tmp_dir("exit-codes");
    let good = dir.join("good.splice");
    std::fs::write(&good, TIMER_SPEC).unwrap();
    let dirty = dir.join("dirty.splice");
    std::fs::write(&dirty, DIRTY_SPEC).unwrap();

    // 0: clean generation.
    let out = splice_bin().arg("-n").arg("-o").arg(&dir).arg(&good).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "clean run must exit 0");
    // 0: profiling under either kernel schedule.
    for backend in ["eager", "gated"] {
        let out = splice_bin().args(["profile", "--backend", backend]).arg(&good).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "profile --backend {backend} must exit 0");
    }

    // 1: spec diagnostics denied (lint error aborts generation).
    let out = splice_bin().arg("-o").arg(&dir).arg("--force").arg(&dirty).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "diagnostic failure must exit 1");

    // 1: parse errors are diagnostics too.
    let bad = dir.join("bad.splice");
    std::fs::write(&bad, "%bus_type plb\nvoid f(int*:x y, int x);\n").unwrap();
    let out = splice_bin().arg("-o").arg(&dir).arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "parse errors must exit 1");
    // …in check mode too, with the same located diagnostic.
    let out = splice_bin().arg("check").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "check on a spec error must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.splice:1:1: error:"), "{stderr}");

    // 2: usage errors — unknown flag, missing input file.
    let out = splice_bin().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let out = splice_bin().arg(dir.join("nope.splice")).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unreadable input must exit 2");
    let out = splice_bin().args(["serve", "--no-such-flag", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown serve flag must exit 2");
    // 2: a u32 budget past its range is rejected, not wrapped to 0.
    for flag in ["--bound", "--max-depth"] {
        let out = splice_bin().args(["check", flag, "4294967296"]).arg(&good).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "out-of-range {flag} must exit 2");
    }
    // 2: a zero checker budget would give a vacuous or false verdict, a
    // zero call count an empty profile, the checker has no backend to
    // select, and profiling has no compiled one.
    for args in [
        ["check", "--bound", "0"],
        ["check", "--max-depth", "0"],
        ["check", "--max-states", "0"],
        ["profile", "--calls", "0"],
        ["check", "--backend", "compiled"],
        ["profile", "--backend", "compiled"],
    ] {
        let out = splice_bin().args(args).arg(&good).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }

    // 2: `splice lint` is the one lint mode; the `--lint` alias is gone.
    for args in [&["--lint"][..], &["check", "--lint"]] {
        let out = splice_bin().args(args).arg(&good).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }

    // 2: a flag outside the modes that read it is refused, naming them,
    // not ignored; the checker budgets need a model-checking run.
    for (args, owner) in [
        (&["lint", "--top", "3"][..], "`splice timing`"),
        (&["timing", "--calls", "2"], "`splice profile`"),
        (&["check", "-n"], "generation"),
        (&["profile", "--json"], "`splice lint`, `check` and `timing`"),
        (&["lint", "--bound", "4"], "`splice check`"),
        (&["--bound", "4"], "`splice check`"),
        (&["lint", "--metrics", "m.json"], "generation"),
    ] {
        let out = splice_bin().current_dir(&dir).args(args).arg(&good).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("read only by {owner}")), "{args:?}: {stderr}");
    }
    assert!(!dir.join("m.json").exists(), "a refused --metrics writes nothing");

    // 3: internal failure — output dir collides with a regular file.
    let blocker = dir.join("blocked");
    std::fs::write(&blocker, "in the way").unwrap();
    let out = splice_bin().arg("-o").arg(&blocker).arg("--force").arg(&good).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "write failure must exit 3");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The FCB library refuses more than 16 function instances (§7.1.2).
const FCB_REFUSED_SPEC: &str = "%device_name d\n%bus_type fcb\n%bus_width 32\nvoid f():17;\n";

/// The PLB library refuses an address past 32 bits (§7.1.2).
const PLB_REFUSED_SPEC: &str = "%device_name d\n%bus_type plb\n%bus_width 32\n\
                                %base_address 0x100000000\nint f(int a);\n";

/// A pseudo-async function with an input and a two-beat output: the
/// behavioural stub must serve both beats in one round, as the HDL does.
const TWO_BEAT_SPEC: &str = "%device_name d\n%bus_type plb\n%bus_width 32\n\
                             %base_address 0x80000000\nlong long f(int a);\n";

/// An explicit bound past the generated 16-bit beat counters.
const HUGE_BOUND_SPEC: &str = "%device_name d\n%bus_type plb\n%bus_width 32\n\
                               %base_address 0x80000000\nvoid f(int*:65536 xs);\n";

/// 33 functions on the strictly synchronous APB: one more than its 32-bit
/// status word has completion bits for.
fn apb_33_functions_spec() -> String {
    let decls: String = (0..33).map(|k| format!("int f{k}(int a{k});\n")).collect();
    format!("%device_name d\n%bus_type apb\n%bus_width 32\n%base_address 0xA0000000\n{decls}")
}

/// Every mode gives one verdict on a spec: a design lint refuses, a spec
/// its bus library refuses, a bound past the beat counters, more functions
/// than the bus can poll, and warnings under `--deny-warnings` exit 1 from
/// all five modes; warnings alone, a two-beat output and the bundled
/// examples exit 0.
#[test]
fn every_mode_gives_the_same_verdict() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = tmp_dir("verdicts");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let fcb = write("fcb.splice", FCB_REFUSED_SPEC);
    let plb = write("plb.splice", PLB_REFUSED_SPEC);
    let warn = write("warn.splice", WARN_ONLY_SPEC);
    let mut cases = vec![
        (root.join("tests/fixtures/dirty.splice"), false, 1),
        (fcb.clone(), false, 1),
        (plb.clone(), false, 1),
        (write("huge.splice", HUGE_BOUND_SPEC), false, 1),
        (write("apb33.splice", &apb_33_functions_spec()), false, 1),
        (warn.clone(), true, 1),
        (warn, false, 0),
        (write("two_beat.splice", TWO_BEAT_SPEC), false, 0),
    ];
    for entry in std::fs::read_dir(root.join("examples/specs")).unwrap() {
        cases.push((entry.unwrap().path(), false, 0));
    }
    let run_in = |args: &[&str], spec: &std::path::Path| {
        splice_bin().current_dir(&dir).args(args).arg(spec).output().unwrap()
    };

    // Generation (dry run) and the four report modes.
    let modes: [&[&str]; 5] =
        [&["-n", "-o", "."], &["lint"], &["check"], &["timing"], &["profile"]];
    for mode in modes {
        for (spec, deny, code) in &cases {
            let args: Vec<&str> =
                mode.iter().copied().chain(deny.then_some("--deny-warnings")).collect();
            let out = run_in(&args, spec);
            assert_eq!(
                out.status.code(),
                Some(*code),
                "{args:?} {} must exit {code}; stderr: {}",
                spec.display(),
                String::from_utf8_lossy(&out.stderr)
            );
        }

        // A bus-library refusal is a spec error located at `%bus_type`.
        for spec in [&fcb, &plb] {
            let out = run_in(mode, spec);
            if mode == ["lint"] {
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(stdout.contains("SL0100 [spec] 2:1"), "{stdout}");
            } else {
                let stderr = String::from_utf8_lossy(&out.stderr);
                let located = format!("{}:2:1: error:", spec.display());
                assert!(stderr.contains(&located), "{mode:?}: {stderr}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace-out` writes the pipeline's span tree in the report modes too,
/// and leaves stdout to the report: `check --json` still prints one JSON
/// document.
#[test]
fn check_trace_out_writes_the_pipeline_spans() {
    use splice_obs::json::JsonValue;
    let dir = tmp_dir("check-trace");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, TIMER_SPEC).unwrap();
    let trace = dir.join("t.json");
    let out = splice_bin().args(["check", "--json", "--trace-out"]).arg(&trace).arg(&spec).output();
    let out = out.expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    JsonValue::parse(&stdout).unwrap_or_else(|e| panic!("stdout is not one document: {e}"));
    let text = std::fs::read_to_string(&trace).expect("check --trace-out writes the trace");
    let doc = JsonValue::parse(&text).expect("the trace is JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("Chrome trace");
    let named =
        |n: &str| events.iter().any(|e| e.get("name").and_then(JsonValue::as_str) == Some(n));
    assert!(named("pipeline") && named("check"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec that parses but does not validate still gets its spec-layer
/// findings, before the SL0100 of the validation error.
#[test]
fn lint_reports_spec_findings_before_the_validation_error() {
    let dir = tmp_dir("lint-sl0104");
    let spec = dir.join("t.splice");
    std::fs::write(
        &spec,
        "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
         void f(int*:n xs, int n);\n",
    )
    .unwrap();
    for (args, first, second) in [
        (&["lint"][..], "SL0104", "SL0100"),
        (&["lint", "--json"], "\"code\": \"SL0104\"", "\"code\": \"SL0100\""),
    ] {
        let out = splice_bin().args(args).arg(&spec).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (a, b) = (stdout.find(first), stdout.find(second));
        assert!(a.is_some() && b.is_some() && a < b, "{args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that hangs up early (`splice lint --explain SL0501 | head -c 1`)
/// must end the run quietly, as it would any Unix filter, not panic on the
/// broken pipe.
#[test]
fn closed_stdout_does_not_panic() {
    let mut child = splice_bin()
        .args(["lint", "--explain", "SL0501"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn linux_flag_emits_the_mmap_header() {
    let dir = tmp_dir("linux");
    let spec = dir.join("t.splice");
    std::fs::write(&spec, TIMER_SPEC).unwrap();
    let out =
        splice_bin().args(["--linux", "--force", "-o"]).arg(&dir).arg(&spec).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let h = std::fs::read_to_string(dir.join("hw_timer/splice_lib_linux.h")).unwrap();
    assert!(h.contains("/dev/mem"), "{h}");
    let _ = std::fs::remove_dir_all(&dir);
}
