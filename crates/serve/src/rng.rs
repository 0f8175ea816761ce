//! The daemon's seeded PRNG: splitmix64, the generator behind restart
//! jitter ([`crate::backoff`]) and `SPLICE_FAULT` draws ([`crate::fault`]).
//!
//! Equal seeds yield equal streams, so a fault-injection run replays
//! exactly under the same `SPLICE_FAULT_SEED`. Not cryptographic.

#[derive(Debug, Clone)]
pub(crate) struct Rng {
    state: u64,
}

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng { state: seed.wrapping_add(GAMMA) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`. Panics if `lo >= hi`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    /// The stream is the test crate's splitmix64 draw for draw, so seeded
    /// fault plans and backoff jitter are unchanged by owning the copy.
    #[test]
    fn stream_matches_the_test_crate_generator() {
        for seed in [0, 1, 7, 42, u64::MAX] {
            let (mut ours, mut reference) = (Rng::new(seed), splice_testutil::Rng::new(seed));
            for _ in 0..64 {
                assert_eq!(ours.range(0, 101), reference.range(0, 101));
                assert_eq!(ours.unit_f64().to_bits(), reference.unit_f64().to_bits());
            }
        }
    }
}
