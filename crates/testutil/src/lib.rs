//! Deterministic pseudo-randomness for property-style tests.
//!
//! The workspace builds in fully offline environments, so the test suite
//! cannot rely on external fuzzing crates. This module provides a small
//! splitmix64/xoshiro-style generator with the handful of combinators the
//! property tests actually use: integer ranges, choices from a slice, and
//! random ASCII strings. Every test seeds its own [`Rng`] so failures
//! reproduce exactly.

/// A deterministic 64-bit PRNG (splitmix64).
///
/// Not cryptographic; chosen for statelessness-friendly simplicity and
/// good 64-bit avalanche behaviour.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a fixed seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range_usize(0, items.len())]
    }

    /// A random string of `len` characters drawn from `alphabet`.
    pub fn string_from(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| *self.pick(alphabet)).collect()
    }

    /// A random printable-ASCII string (plus `\n`/`\t`) of length `< max_len`.
    pub fn ascii_noise(&mut self, max_len: usize) -> String {
        let len = self.range_usize(0, max_len.max(1));
        (0..len)
            .map(|_| match self.range(0, 20) {
                0 => '\n',
                1 => '\t',
                _ => (self.range(0x20, 0x7F) as u8) as char,
            })
            .collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// Run `f` for `cases` iterations, each with a fresh seeded [`Rng`].
///
/// The per-case seed is printed on panic via the case index, so a failing
/// case can be re-run in isolation with `Rng::new(seed_for(base_seed, i))`.
pub fn check(base_seed: u64, cases: u64, mut f: impl FnMut(&mut Rng)) {
    for i in 0..cases {
        let mut rng = Rng::new(seed_for(base_seed, i));
        f(&mut rng);
    }
}

/// The shape perfbench's `gen_wide` scales: one PLB device with `n`
/// functions `long fK(int nK, int*:nK xsK, char cK)`, each taking a
/// length-bounded array.
pub fn wide_spec(n: usize) -> String {
    let mut s =
        String::from("%device_name big\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n");
    for i in 0..n {
        s.push_str(&format!("long f{i}(int n{i}, int*:n{i} xs{i}, char c{i});\n"));
    }
    s
}

/// A generator of well-formed Splice specifications: one to five functions
/// on any of the seven builtin buses at any width it allows, with scalar,
/// split (wider than the bus), packed, explicitly and implicitly bounded,
/// bursted and DMA transfers, multi-instance and `nowait` functions.
pub fn arb_spec(rng: &mut Rng) -> String {
    const BUSES: &[(&str, &[u32])] = &[
        ("plb", &[32, 64]),
        ("opb", &[32]),
        ("fcb", &[32]),
        ("apb", &[32]),
        ("ahb", &[32, 64]),
        ("wishbone", &[8, 16, 32, 64]),
        ("avalon", &[32, 64]),
    ];
    let (bus, widths) = *rng.pick(BUSES);
    let width = *rng.pick(widths);
    let burst = !matches!(bus, "opb" | "apb") && rng.bool();
    let dma = matches!(bus, "plb" | "ahb" | "avalon") && rng.bool();
    let mut s = format!("%device_name fuzz\n%bus_type {bus}\n%bus_width {width}\n");
    if bus != "fcb" {
        s.push_str("%base_address 0x80000000\n");
    }
    for (on, flag) in [(burst, "burst"), (dma, "dma"), (rng.bool(), "packing"), (rng.bool(), "irq")]
    {
        if on {
            s.push_str(&format!("%{flag}_support true\n"));
        }
    }
    for i in 0..rng.range_usize(1, 6) {
        // Scalars first, so implicit bounds can name any of them.
        let n_scalars = rng.range_usize(0, 3);
        let mut params: Vec<String> = (0..n_scalars)
            .map(|j| format!("{} p{j}", rng.pick(&["int", "char", "short", "long long"])))
            .collect();
        for j in n_scalars..n_scalars + rng.range_usize(0, 3) {
            let mut shapes = vec!["int*:3", "long long*:2", "char*:5"];
            if width > 8 {
                shapes.push("char*:8+");
            }
            if dma {
                shapes.extend(["int*:4^", "int*:9^"]);
            }
            let bound = format!("p{}", rng.range_usize(0, n_scalars.max(1)));
            let implicit =
                [format!("int*:{bound}"), format!("char*:{bound}"), format!("int*:{bound}^")];
            let shape = match rng.range(0, 3) {
                0 if n_scalars > 0 && dma => implicit[rng.range_usize(0, 3)].clone(),
                0 if n_scalars > 0 => implicit[rng.range_usize(0, 2)].clone(),
                _ => rng.pick(&shapes).to_string(),
            };
            params.push(format!("{shape} p{j}"));
        }
        let mut rets = vec!["void", "int", "char", "long long", "nowait", "int*:6", "char*:7"];
        if n_scalars > 0 {
            rets.push("int*:p0");
        }
        let ret = *rng.pick(&rets);
        let instances =
            if rng.range(0, 4) == 0 { format!(":{}", rng.range(2, 4)) } else { String::new() };
        s.push_str(&format!("{ret} fn{i}({}){instances};\n", params.join(", ")));
    }
    s
}

/// The seed used for case `i` of a [`check`] run.
pub fn seed_for(base_seed: u64, case: u64) -> u64 {
    base_seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = Rng::new(42);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn ascii_noise_is_printable() {
        let mut r = Rng::new(9);
        for _ in 0..100 {
            let s = r.ascii_noise(64);
            assert!(s.bytes().all(|b| b == b'\n' || b == b'\t' || (0x20..0x7F).contains(&b)));
        }
    }
}
