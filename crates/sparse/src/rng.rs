//! Minimal deterministic pseudo-random number generator.
//!
//! The workspace must build and test with no network access, so instead
//! of depending on the `rand` crate we vendor a tiny xorshift128+
//! generator seeded through SplitMix64. It is *not* cryptographic — it
//! exists to produce reproducible start vectors, test matrices and
//! workload layouts, where the only requirements are decent equidistribution
//! and bit-exact replay from a `u64` seed.

/// Xorshift128+ pseudo-random generator with SplitMix64 seeding.
///
/// The same seed always yields the same stream, on every platform:
/// everything downstream (Lanczos start vectors, generated meshes,
/// randomized tests) is reproducible from a single `u64`.
#[derive(Clone, Debug)]
pub struct XorShiftRng {
    s0: u64,
    s1: u64,
}

/// SplitMix64 step: expands a seed into well-mixed state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl XorShiftRng {
    /// Create a generator from a 64-bit seed.
    ///
    /// The seed is run through SplitMix64 twice to produce the two state
    /// words, so even "weak" seeds like 0 and 1 give unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        // xorshift128+ requires a nonzero state; SplitMix64 only maps a
        // single input to (0, 0), so nudge that one case.
        if s0 == 0 && s1 == 0 {
            XorShiftRng { s0: 1, s1: 0 }
        } else {
            XorShiftRng { s0, s1 }
        }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.gen_f64()
    }

    /// Uniform `usize` in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses the widening-multiply trick; the bias is at most `n / 2⁶⁴`,
    /// irrelevant for workload generation.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index on empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// A uniform random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.gen_index(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_across_instances() {
        let mut a = XorShiftRng::seed_from_u64(42);
        let mut b = XorShiftRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShiftRng::seed_from_u64(1);
        let mut b = XorShiftRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        // The stream should cover most of the interval.
        assert!(min < 0.01 && max > 0.99);
    }

    #[test]
    fn index_in_bounds_and_covers() {
        let mut rng = XorShiftRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let i = rng.gen_index(10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = XorShiftRng::seed_from_u64(0);
        let x = rng.next_u64();
        let y = rng.next_u64();
        assert!(x != 0 || y != 0);
    }
}
