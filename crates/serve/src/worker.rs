//! The worker side of the supervision protocol.
//!
//! A worker is the `splice-serve` binary re-exec'd with `--worker`: it
//! reads [`JobMsg`] frames on stdin, runs each spec through
//! [`splice::run_pipeline`], and writes [`WorkerMsg::Done`] frames on
//! stdout. Process isolation is the whole point — a panic, abort, or
//! runaway loop in any pipeline phase takes down *this* process and
//! nothing else, and the supervisor observes it as a frame that never
//! arrives. Accordingly the worker installs no panic hooks and catches
//! no unwinds: dying loudly is its contract.
//!
//! Clean shutdown is EOF on stdin (the supervisor closing the pipe);
//! the worker finishes nothing (it only reads between jobs) and exits 0.

use crate::fault::{FaultAction, FaultPlan};
use crate::hash::fnv64_update;
use crate::protocol::{
    read_frame, write_frame, FrameError, JobMsg, JobOptions, JobVerdict, WorkerMsg,
};
use crate::rng::Rng;
use splice::pipeline::{run_pipeline, PipelineError, PipelineOptions};
use splice_check::CheckOptions;
use std::io::{self, Write};
use std::time::Duration;

/// Run the worker loop over stdin/stdout. Returns the process exit code.
pub fn run_worker() -> i32 {
    let fault = match FaultPlan::from_env() {
        Ok(plan) => plan.unwrap_or_default(),
        Err(e) => {
            eprintln!("splice-serve worker: bad SPLICE_FAULT: {e}");
            return 2;
        }
    };
    let seed = std::env::var("SPLICE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or_else(|| u64::from(std::process::id()));
    let mut rng = Rng::new(seed);

    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();

    if write_frame(&mut output, &WorkerMsg::Ready { pid: u64::from(std::process::id()) }.render())
        .is_err()
    {
        // Supervisor already gone; nothing to clean up.
        return 0;
    }

    loop {
        let payload = match read_frame(&mut input) {
            Ok(Some(p)) => p,
            // EOF at a frame boundary: the supervisor closed our stdin —
            // the orderly shutdown path (drain, pool resize, daemon exit).
            Ok(None) => return 0,
            Err(FrameError::Io(_)) | Err(FrameError::Truncated) => return 0,
            Err(e) => {
                eprintln!("splice-serve worker: protocol error from supervisor: {e}");
                return 1;
            }
        };
        let job = match JobMsg::parse(&payload) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("splice-serve worker: bad job frame: {e}");
                return 1;
            }
        };

        match fault.decide(&mut rng, &job.spec) {
            FaultAction::None => {}
            FaultAction::Crash => {
                // Simulate a hard crash (OOM kill, abort(), segfault): no
                // unwinding, no drop glue, no goodbye frame.
                std::process::abort();
            }
            FaultAction::Hang => loop {
                // Simulate a livelock until the deadline reaper kills us.
                std::thread::sleep(Duration::from_secs(3600));
            },
            FaultAction::Slow(ms) => std::thread::sleep(Duration::from_millis(ms)),
        }

        let verdict = run_job(&job.spec, job.options);
        let frame = WorkerMsg::Done { job: job.job, verdict }.render();
        if write_frame(&mut output, &frame).is_err() {
            return 0;
        }
        let _ = output.flush();
    }
}

/// The path spec errors are located against: a job's spec has no file.
const SPEC_PATH: &str = "<serve>";

/// Run one spec through the pipeline and condense the outcome into the
/// deterministic, cacheable [`JobVerdict`].
pub fn run_job(spec: &str, options: JobOptions) -> JobVerdict {
    let opts = PipelineOptions {
        linux: options.linux,
        check: options.check.then(CheckOptions::default),
        deny_warnings: options.deny_warnings,
        ..PipelineOptions::default()
    };
    match run_pipeline(spec, SPEC_PATH, &opts) {
        Ok(out) => {
            let mut digest = crate::hash::FNV64_OFFSET;
            let mut bytes = 0u64;
            for f in &out.hw {
                digest = fnv64_update(digest, f.name.as_bytes());
                digest = fnv64_update(digest, f.text.as_bytes());
                bytes += f.text.len() as u64;
            }
            for (name, text) in &out.sw {
                digest = fnv64_update(digest, name.as_bytes());
                digest = fnv64_update(digest, text.as_bytes());
                bytes += text.len() as u64;
            }
            let lint = (out.lint.error_count() as u64, out.lint.warning_count() as u64);
            let check = out
                .check
                .as_ref()
                .map(|c| (c.report.error_count() as u64, c.report.warning_count() as u64))
                .unwrap_or((0, 0));
            let denied = out.denial(options.deny_warnings).is_some();
            JobVerdict::Ok {
                hw_files: out.hw.len() as u64,
                sw_files: out.sw.len() as u64,
                bytes,
                lint,
                check,
                denied,
                digest,
            }
        }
        Err(PipelineError::Spec { errors, .. }) => JobVerdict::SpecError {
            errors: errors.iter().map(|e| e.render_at(spec, SPEC_PATH)).collect(),
        },
        Err(PipelineError::Phase(message)) => JobVerdict::Internal { message },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "%device_name wdev\n%bus_type plb\n%bus_width 32\n\
                        %base_address 0x80000000\nint mac(int a, int b);\n";

    #[test]
    fn run_job_produces_a_deterministic_ok_verdict() {
        let opts = JobOptions { linux: false, check: false, deny_warnings: false };
        let a = run_job(SPEC, opts);
        let b = run_job(SPEC, opts);
        assert_eq!(a, b, "verdicts must be content-deterministic");
        match a {
            JobVerdict::Ok { hw_files, sw_files, denied, digest, .. } => {
                assert!(hw_files > 0);
                assert_eq!(sw_files, 3);
                assert!(!denied);
                assert_ne!(digest, 0);
            }
            other => panic!("expected Ok verdict, got {other:?}"),
        }
    }

    #[test]
    fn options_change_the_digest() {
        let plain = run_job(SPEC, JobOptions::default());
        let linux = run_job(SPEC, JobOptions { linux: true, ..JobOptions::default() });
        let (
            JobVerdict::Ok { digest: d0, sw_files: s0, .. },
            JobVerdict::Ok { digest: d1, sw_files: s1, .. },
        ) = (plain, linux)
        else {
            panic!("expected Ok verdicts");
        };
        assert_ne!(d0, d1);
        assert_eq!(s1, s0 + 1, "linux adds one header");
    }

    #[test]
    fn bad_specs_come_back_as_spec_errors_not_panics() {
        match run_job("%bogus directive\n", JobOptions::default()) {
            JobVerdict::SpecError { errors } => assert!(!errors.is_empty()),
            other => panic!("expected SpecError, got {other:?}"),
        }
    }

    #[test]
    fn bus_library_refusals_are_spec_errors() {
        // The FCB library refuses more than 16 function instances.
        let spec = "%device_name d\n%bus_type fcb\n%bus_width 32\nvoid f():17;\n";
        match run_job(spec, JobOptions::default()) {
            JobVerdict::SpecError { errors } => {
                assert_eq!(errors.len(), 1, "{errors:?}");
                assert!(errors[0].starts_with("<serve>:2:1: error: "), "{errors:?}");
            }
            other => panic!("expected SpecError, got {other:?}"),
        }
    }
}
