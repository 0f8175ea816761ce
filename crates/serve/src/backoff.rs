//! Exponential backoff with jitter for worker restarts.
//!
//! A worker that dies immediately after spawn must not be respawned in a
//! tight loop: a persistent environment problem (missing binary, broken
//! loader, OOM killer) would otherwise turn the supervisor into a fork
//! bomb. Each worker slot owns one [`Backoff`]: consecutive deaths double
//! the delay from `base` up to `cap`, a deterministic jitter (seeded per
//! slot) decorrelates the slots so they do not thundering-herd back, and
//! the first *successfully completed job* resets the series.

use crate::rng::Rng;
use std::time::Duration;

/// Restart-delay series: `base * 2^n + jitter`, capped.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    consecutive: u32,
    rng: Rng,
}

impl Backoff {
    /// A fresh series. `seed` decorrelates jitter across worker slots.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            consecutive: 0,
            rng: Rng::new(seed),
        }
    }

    /// Record a worker death and return how long to wait before the next
    /// spawn. The first death retries immediately (crash isolation should
    /// be cheap when crashes are rare); repeats back off exponentially.
    pub fn next_delay(&mut self) -> Duration {
        let n = self.consecutive;
        self.consecutive = self.consecutive.saturating_add(1);
        if n == 0 {
            return Duration::ZERO;
        }
        let exp = self.base_ms.saturating_mul(1u64 << (n - 1).min(20)).min(self.cap_ms);
        let jitter = self.rng.range(0, self.base_ms + 1);
        Duration::from_millis(exp.saturating_add(jitter).min(self.cap_ms))
    }

    /// Restart count in the current unbroken death streak.
    pub fn streak(&self) -> u32 {
        self.consecutive
    }

    /// A job completed on this worker: the environment works, forget the
    /// streak.
    pub fn reset(&mut self) {
        self.consecutive = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_up_to_the_cap_and_resets() {
        let mut b = Backoff::new(50, 1000, 42);
        assert_eq!(b.next_delay(), Duration::ZERO);
        let mut last = 0u128;
        for expected_floor in [50u128, 100, 200, 400, 800, 1000, 1000] {
            let d = b.next_delay().as_millis();
            assert!(d >= expected_floor.min(1000), "delay {d} below floor {expected_floor}");
            assert!(d <= 1000, "delay {d} above cap");
            last = d;
        }
        let _ = last;
        b.reset();
        assert_eq!(b.next_delay(), Duration::ZERO);
        assert_eq!(b.streak(), 1);
    }

    #[test]
    fn jitter_differs_across_seeds() {
        let mut a = Backoff::new(100, 10_000, 1);
        let mut b = Backoff::new(100, 10_000, 2);
        let series_a: Vec<_> = (0..6).map(|_| a.next_delay()).collect();
        let series_b: Vec<_> = (0..6).map(|_| b.next_delay()).collect();
        assert_ne!(series_a, series_b);
    }
}
