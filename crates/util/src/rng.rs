//! Deterministic RNG plumbing.
//!
//! Every stochastic component in the workspace (Monte-Carlo physics,
//! trace generation, fault injection) takes an explicit 64-bit seed and
//! derives independent streams from it, so repro binaries are bit-for-bit
//! reproducible while sub-components stay statistically decoupled.

/// Creates a seeded general-purpose generator for reproducible
/// experiments.
///
/// The state is pre-mixed through SplitMix64 so nearby integer seeds
/// (0, 1, 2, …) still start from well-separated states.
pub fn seeded_rng(seed: u64) -> SmallRng64 {
    SmallRng64::new(splitmix64(seed))
}

/// Derives an independent sub-seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mixer:
/// distinct `(seed, stream)` pairs map to well-separated outputs, so
/// sub-streams of the same experiment do not correlate.
///
/// # Examples
///
/// ```
/// use rtm_util::rng::derive_seed;
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0));
/// ```
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// One round of the SplitMix64 output function.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny, fast, deterministic generator for hot simulation loops where
/// constructing a full `StdRng` per object would be wasteful (e.g. one
/// per racetrack stripe).
///
/// This is `xorshift64*`; statistical quality is far beyond what fault
/// injection needs, and the state is a single `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng64 {
    state: u64,
}

impl SmallRng64 {
    /// Creates a generator from a seed (zero is remapped internally so the
    /// generator never sticks).
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x853C_49E6_748F_EA9B
        } else {
            seed
        };
        Self { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift; bias is negligible for simulation bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Standard normal deviate (Box–Muller, one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        let (u1, u2) = self.next_box_muller_uniforms();
        box_muller(u1, u2)
    }

    /// The two uniforms one [`SmallRng64::next_gaussian`] call draws:
    /// the radius uniform `u1 ∈ [f64::MIN_POSITIVE, 1)` first, then the
    /// angle uniform `u2 ∈ [0, 1)`. [`box_muller`] turns them into the
    /// deviate `next_gaussian` returns.
    pub fn next_box_muller_uniforms(&mut self) -> (f64, f64) {
        // Avoid u1 == 0 so ln() stays finite.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        (u1, self.next_f64())
    }
}

/// The Box–Muller transform of one uniform pair: radius
/// `√(−2 ln u1)` times `cos(2π u2)`.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_separating() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn small_rng_zero_seed_is_usable() {
        let mut r = SmallRng64::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SmallRng64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SmallRng64::new(9);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SmallRng64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = SmallRng64::new(1234);
        let stats: crate::stats::OnlineStats = (0..200_000).map(|_| r.next_gaussian()).collect();
        assert!(stats.mean().abs() < 0.02, "mean {}", stats.mean());
        assert!(
            (stats.std_dev() - 1.0).abs() < 0.02,
            "sd {}",
            stats.std_dev()
        );
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = SmallRng64::new(55);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn seeded_rng_reproducible() {
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seeded_rng_separates_adjacent_seeds() {
        let mut a = seeded_rng(0);
        let mut b = seeded_rng(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
