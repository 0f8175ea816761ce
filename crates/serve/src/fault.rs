//! Fault injection for the supervision test harness.
//!
//! Workers honor the `SPLICE_FAULT` environment variable so the
//! integration suite (and a curious operator) can drill the supervisor's
//! recovery paths against *real* process failures — aborts, hangs past
//! the deadline, pathological slowness — rather than mocks:
//!
//! ```text
//! SPLICE_FAULT=crash:p0.2,hang:p0.1,slow:ms50[,slow:p0.5][,bomb:TOKEN]
//! ```
//!
//! * `crash:pN` — before running a job, abort the whole worker process
//!   with probability `N` (exercises crash isolation + backoff restart);
//! * `hang:pN` — sleep forever with probability `N` (exercises the
//!   per-job deadline and kill-and-reap);
//! * `slow:msN` — sleep `N` ms before running (exercises latency
//!   accounting and queue backpressure); `slow:pN` bounds it to a
//!   fraction of jobs (default: every job once `slow:ms` is given);
//! * `bomb:TOKEN` — abort *deterministically* whenever the spec text
//!   contains `TOKEN` (exercises the per-spec circuit breaker: such a
//!   spec crashes every worker it touches, so the breaker must open).
//!
//! Draws come from the worker's own seeded PRNG (`SPLICE_FAULT_SEED`,
//! defaulting to the pid), advanced per job: a job that crashed on one
//! worker re-draws on the next, so random faults do not pin a spec down
//! the way `bomb:` does.

use crate::rng::Rng;

/// Parsed `SPLICE_FAULT` plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability of aborting the process before a job.
    pub crash_p: f64,
    /// Probability of hanging forever on a job.
    pub hang_p: f64,
    /// Injected latency in milliseconds.
    pub slow_ms: u64,
    /// Probability of applying `slow_ms` (1.0 once `slow:ms` appears).
    pub slow_p: f64,
    /// Specs containing this token crash deterministically.
    pub bomb: Option<String>,
}

/// What the worker should do with the next job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Run the job normally.
    None,
    /// Abort the process.
    Crash,
    /// Sleep forever (until the supervisor kills us).
    Hang,
    /// Sleep this many milliseconds, then run the job.
    Slow(u64),
}

impl FaultPlan {
    /// Parse a `SPLICE_FAULT` string. Unknown or malformed clauses are
    /// errors: a mistyped fault drill silently doing nothing would defeat
    /// its purpose.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, arg) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` is missing `:`"))?;
            let prob = |a: &str| -> Result<f64, String> {
                let p = a
                    .strip_prefix('p')
                    .ok_or_else(|| format!("`{clause}`: expected pN (a probability)"))?
                    .parse::<f64>()
                    .map_err(|e| format!("`{clause}`: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("`{clause}`: probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match kind {
                "crash" => plan.crash_p = prob(arg)?,
                "hang" => plan.hang_p = prob(arg)?,
                "slow" if arg.starts_with("ms") => {
                    plan.slow_ms =
                        arg[2..].parse::<u64>().map_err(|e| format!("`{clause}`: {e}"))?;
                    if plan.slow_p == 0.0 {
                        plan.slow_p = 1.0;
                    }
                }
                "slow" => plan.slow_p = prob(arg)?,
                "bomb" => plan.bomb = Some(arg.to_owned()),
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Read the plan from `SPLICE_FAULT` (`None` when unset or empty).
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("SPLICE_FAULT") {
            Ok(s) if !s.trim().is_empty() => FaultPlan::parse(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// Decide the fate of one job. Advances `rng` a fixed number of draws
    /// regardless of outcome so fault streams stay aligned across plans.
    pub(crate) fn decide(&self, rng: &mut Rng, spec: &str) -> FaultAction {
        let crash_draw = rng.unit_f64();
        let hang_draw = rng.unit_f64();
        let slow_draw = rng.unit_f64();
        if let Some(token) = &self.bomb {
            if spec.contains(token.as_str()) {
                return FaultAction::Crash;
            }
        }
        if crash_draw < self.crash_p {
            return FaultAction::Crash;
        }
        if hang_draw < self.hang_p {
            return FaultAction::Hang;
        }
        if self.slow_ms > 0 && slow_draw < self.slow_p {
            return FaultAction::Slow(self.slow_ms);
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_syntax() {
        let plan = FaultPlan::parse("crash:p0.2,hang:p0.1,slow:ms50").unwrap();
        assert_eq!(plan.crash_p, 0.2);
        assert_eq!(plan.hang_p, 0.1);
        assert_eq!(plan.slow_ms, 50);
        assert_eq!(plan.slow_p, 1.0);
        assert_eq!(plan.bomb, None);

        let plan = FaultPlan::parse("slow:ms10,slow:p0.5,bomb:BOOM").unwrap();
        assert_eq!(plan.slow_p, 0.5);
        assert_eq!(plan.bomb.as_deref(), Some("BOOM"));
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(FaultPlan::parse("crash:0.2").is_err());
        assert!(FaultPlan::parse("crash:p1.5").is_err());
        assert!(FaultPlan::parse("explode:p0.1").is_err());
        assert!(FaultPlan::parse("slow:msx").is_err());
    }

    #[test]
    fn bomb_is_deterministic_and_random_faults_roughly_hit_their_rate() {
        let plan = FaultPlan::parse("crash:p0.5,bomb:BOOM").unwrap();
        let mut rng = Rng::new(7);
        for _ in 0..16 {
            assert_eq!(plan.decide(&mut rng, "/* BOOM */ %device_name d"), FaultAction::Crash);
        }
        let mut crashes = 0;
        for _ in 0..1000 {
            if plan.decide(&mut rng, "clean spec") == FaultAction::Crash {
                crashes += 1;
            }
        }
        assert!((350..650).contains(&crashes), "crash rate off: {crashes}/1000");
    }

    #[test]
    fn empty_plan_never_faults() {
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(FaultPlan::default().decide(&mut rng, "x"), FaultAction::None);
        }
    }
}
