//! Corpus-driven robustness: every example spec, mutated hundreds of
//! ways — truncated mid-byte, bit-flipped, nesting-bombed — must come out
//! of `run_pipeline` as a *structured* outcome (`Ok`, `Spec`, or `Phase`),
//! never a panic. This is the offline twin of the serve daemon's fault
//! harness: the daemon proves crashes are survivable, this proves the
//! pipeline itself does not crash on hostile input in the first place.

use splice::pipeline::{run_pipeline, PipelineOptions};
use splice_testutil::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut specs = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "splice") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            specs.push((name, std::fs::read_to_string(&path).expect("readable spec")));
        }
    }
    specs.sort();
    assert!(specs.len() >= 5, "the example corpus must cover every shipped spec");
    specs
}

/// Run one mutated source through the full pipeline; the only acceptable
/// failure mode is a structured error.
fn must_not_panic(name: &str, tag: &str, source: &str) {
    let opts = PipelineOptions::default();
    let outcome =
        catch_unwind(AssertUnwindSafe(|| match run_pipeline(source, "<mutation>", &opts) {
            Ok(_) => "ok",
            Err(splice::pipeline::PipelineError::Spec { errors, .. }) => {
                assert!(!errors.is_empty(), "Spec error with no diagnostics");
                "spec"
            }
            Err(splice::pipeline::PipelineError::Phase(message)) => {
                assert!(!message.is_empty(), "Phase error with no message");
                "phase"
            }
        }));
    assert!(outcome.is_ok(), "pipeline panicked on {name} mutation `{tag}` over:\n{source}");
}

/// Every prefix-truncation of every example spec (cut at each byte
/// boundary a few bytes apart) parses or fails cleanly.
#[test]
fn truncated_specs_fail_structurally() {
    for (name, text) in corpus() {
        let bytes = text.as_bytes();
        let mut cut = 0usize;
        while cut < bytes.len() {
            let chopped = String::from_utf8_lossy(&bytes[..cut]).into_owned();
            must_not_panic(&name, &format!("truncate@{cut}"), &chopped);
            cut += 7; // step keeps the corpus size sane while hitting
                      // mid-directive, mid-identifier, and mid-comment cuts
        }
    }
}

/// Random single- and multi-bit flips over every spec (seeded, so a
/// failure reproduces byte-for-byte).
#[test]
fn bit_flipped_specs_fail_structurally() {
    let mut rng = Rng::new(0x0b57_ac1e);
    for (name, text) in corpus() {
        for case in 0..60 {
            let mut bytes = text.clone().into_bytes();
            let flips = rng.range(1, 4);
            for _ in 0..flips {
                let at = rng.range_usize(0, bytes.len());
                let bit = rng.range(0, 8) as u32;
                bytes[at] ^= 1 << bit;
            }
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            must_not_panic(&name, &format!("bitflip#{case}"), &mutated);
        }
    }
}

/// Pathologically nested and repeated constructs must be rejected (or
/// handled) without blowing the stack: deep comment nesting, huge
/// replication counts, directive spam, and very long identifiers.
#[test]
fn deeply_nested_and_repetitive_specs_fail_structurally() {
    let deep_comment = format!("{}x{}", "/*".repeat(2_000), "*/".repeat(2_000));
    must_not_panic("synthetic", "deep-comment", &deep_comment);

    let long_ident = "a".repeat(100_000);
    must_not_panic(
        "synthetic",
        "long-identifier",
        &format!("%device_name {long_ident}\n%bus_type plb\nvoid {long_ident}();\n"),
    );

    let directive_spam = "%bus_width 32\n".repeat(10_000);
    must_not_panic("synthetic", "directive-spam", &directive_spam);

    let many_params: String =
        (0..5_000).map(|i| format!("int p{i}, ")).collect::<String>() + "int last";
    must_not_panic(
        "synthetic",
        "wide-function",
        &format!("%device_name wide\n%bus_type plb\nvoid f({many_params});\n"),
    );

    must_not_panic(
        "synthetic",
        "huge-replication",
        "%device_name rep\n%bus_type apb\nint f(int x):4294967295;\n",
    );
}

/// Seeded random splices of two corpus specs (frankenspecs): swap the
/// directive block of one onto the function block of another, shuffle
/// lines, and duplicate random lines.
#[test]
fn spliced_and_shuffled_specs_fail_structurally() {
    let corpus = corpus();
    let mut rng = Rng::new(0x5eed_f00d);
    for case in 0..40 {
        let (na, a) = rng.pick(&corpus);
        let (nb, b) = rng.pick(&corpus);
        let mut lines: Vec<&str> = a.lines().chain(b.lines()).collect();
        rng.shuffle(&mut lines);
        let keep = rng.range_usize(1, lines.len() + 1);
        let mutated = lines[..keep].join("\n");
        must_not_panic(&format!("{na}+{nb}"), &format!("splice#{case}"), &mutated);
    }
}
