//! Walker alias-table sampling of discrete shift outcomes.
//!
//! The Monte-Carlo hot paths (`ShiftSimulator`, the fig14 sweep's
//! per-shift sampling, fault injection) classically draw two Box–Muller
//! Gaussians (four uniforms) per simulated shift and, unless
//! [`GaussianSampler`](crate::shift::GaussianSampler)'s early exit
//! clears them, transform and `settle()` them. The
//! outcome space is tiny and discrete, though: a handful of pinned
//! offsets and mid-flat intervals whose probabilities the analytic
//! engine computes in closed form. Precomputing a Walker/Vose alias
//! table per shift distance turns each sample into **one 64-bit RNG
//! draw, one 128-bit multiply, and two array reads** — O(1) with no
//! branches on the common path.
//!
//! [`AliasTable`] is the generic sampler; [`OutcomeAliasSampler`] binds
//! per-distance raw and STS-repaired outcome tables to a
//! [`NoiseModel`]. Rare stop-in-middle outcomes still need a continuous
//! fractional position; those draw it from the truncated Gaussian via
//! the inverse CDF, keeping the distribution exact rather than
//! approximated.

use crate::analytic::AnalyticEngine;
use crate::params::DeviceParams;
use crate::shift::{NoiseModel, ShiftOutcome};
use rtm_util::math::{erf, normal_quantile};
use rtm_util::rng::SmallRng64;

/// Lowest pinned offset tabulated for raw outcomes.
const RAW_PIN_MIN: i32 = -3;
/// Highest pinned offset tabulated for raw outcomes.
const RAW_PIN_MAX: i32 = 3;
/// Lowest flat interval `(k, k+1)` tabulated for raw outcomes.
const RAW_MID_MIN: i32 = -3;
/// Highest flat interval `(k, k+1)` tabulated for raw outcomes.
const RAW_MID_MAX: i32 = 2;
/// Lowest post-STS offset tabulated.
const STS_MIN: i32 = -3;
/// Highest post-STS offset tabulated (one above the raw pin range:
/// the stage-2 push folds the top flat interval forward).
const STS_MAX: i32 = 4;

/// A Walker/Vose alias table over `n` outcome classes.
///
/// Construction is the standard two-stack method; thresholds are stored
/// as `u64` fixed point (probability × 2⁶⁴) so sampling never touches
/// floating point. Building is a deterministic pure function of the
/// weights, so samplers built from equal weights sample identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasTable {
    /// Fixed-point acceptance threshold per slot.
    prob: Vec<u64>,
    /// Alias class per slot.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative class weights (any positive
    /// total; weights are normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one class");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must have a positive finite sum"
        );
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weight {w} must be in [0, inf)");
        }
        let n = weights.len();
        // Scaled probabilities p_i * n; slots with scaled < 1 borrow
        // from slots with scaled > 1.
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
        let mut alias = vec![0u32; n];
        let mut prob = vec![0u64; n];
        let mut small: Vec<usize> = (0..n).filter(|&i| scaled[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..n).filter(|&i| scaled[i] >= 1.0).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = fixed_point(scaled[s]);
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining slots (numerical leftovers of either stack) accept
        // unconditionally.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = u64::MAX;
            alias[i] = i as u32;
        }
        Self { prob, alias }
    }

    /// Number of outcome classes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no classes (never constructible — kept
    /// for the conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Samples a class index with a single 64-bit RNG draw: the high
    /// word of `u · n` picks the slot, the low word is the uniform
    /// threshold test against the slot's fixed-point probability.
    pub fn sample(&self, rng: &mut SmallRng64) -> usize {
        let u = rng.next_u64();
        let prod = (u as u128) * (self.prob.len() as u128);
        let slot = (prod >> 64) as usize;
        let frac = prod as u64;
        if frac < self.prob[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }
}

/// `p ∈ [0, 1]` as u64 fixed point, with 1.0 saturating to `u64::MAX`.
fn fixed_point(p: f64) -> u64 {
    let clamped = p.clamp(0.0, 1.0);
    if clamped >= 1.0 {
        u64::MAX
    } else {
        (clamped * (u64::MAX as f64)) as u64
    }
}

/// A raw-shift outcome class: pinned at an offset, or stopped in the
/// flat interval above `lower`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RawClass {
    Pinned(i32),
    Mid(i32),
}

/// The fixed raw class list, pinned offsets first then flat intervals.
fn raw_classes() -> Vec<RawClass> {
    (RAW_PIN_MIN..=RAW_PIN_MAX)
        .map(RawClass::Pinned)
        .chain((RAW_MID_MIN..=RAW_MID_MAX).map(RawClass::Mid))
        .collect()
}

/// Precomputed per-distance alias tables over shift-outcome classes.
///
/// `sample_raw` replaces `sample_error` + `settle`; `sample_sts`
/// replaces the full two-stage pipeline (always one draw — STS outcomes
/// are always pinned, so no fractional position is ever needed).
#[derive(Debug, Clone)]
pub struct OutcomeAliasSampler {
    noise: NoiseModel,
    classes: Vec<RawClass>,
    /// Raw tables indexed by `distance - 1`.
    raw: Vec<AliasTable>,
    /// STS tables indexed by `distance - 1` over offsets
    /// `STS_MIN..=STS_MAX`.
    sts: Vec<AliasTable>,
    /// Truncated-Gaussian CDF bounds `(p_lo, p_hi)` per distance per
    /// mid class, for exact fractional positions on the rare
    /// stop-in-middle branch.
    mid_bounds: Vec<Vec<(f64, f64)>>,
}

impl OutcomeAliasSampler {
    /// Builds tables for distances `1..=max_distance`.
    ///
    /// # Panics
    ///
    /// Panics if `max_distance == 0`.
    pub fn new(noise: NoiseModel, max_distance: u32) -> Self {
        assert!(max_distance > 0, "need at least distance 1");
        let engine = AnalyticEngine::new(noise);
        let classes = raw_classes();
        let mut raw = Vec::with_capacity(max_distance as usize);
        let mut sts = Vec::with_capacity(max_distance as usize);
        let mut mid_bounds = Vec::with_capacity(max_distance as usize);
        for d in 1..=max_distance {
            let mut weights: Vec<f64> = classes
                .iter()
                .map(|&c| match c {
                    RawClass::Pinned(k) => {
                        engine.raw_bin_probability(d, crate::montecarlo::PositionBin::AtStep(k))
                    }
                    RawClass::Mid(k) => {
                        engine.raw_bin_probability(d, crate::montecarlo::PositionBin::Between(k))
                    }
                })
                .collect();
            // Fold the (immeasurably small) truncated tail mass into
            // the on-target class so each table is exactly normalized.
            let total: f64 = weights.iter().sum();
            let on_target = classes
                .iter()
                .position(|&c| c == RawClass::Pinned(0))
                .expect("class list always holds offset 0");
            weights[on_target] += (1.0 - total).max(0.0);
            raw.push(AliasTable::new(&weights));

            let mut sts_weights: Vec<f64> = (STS_MIN..=STS_MAX)
                .map(|k| engine.sts_offset_probability(d, k))
                .collect();
            let sts_total: f64 = sts_weights.iter().sum();
            sts_weights[(-STS_MIN) as usize] += (1.0 - sts_total).max(0.0);
            sts.push(AliasTable::new(&sts_weights));

            let mu = noise.mean_for(d);
            let sigma = noise.sigma_for(d);
            let w = noise.capture_half_window;
            let cdf = |x: f64| 0.5 * (1.0 + erf((x - mu) / (sigma * std::f64::consts::SQRT_2)));
            mid_bounds.push(
                (RAW_MID_MIN..=RAW_MID_MAX)
                    .map(|k| (cdf(k as f64 + w), cdf(k as f64 + 1.0 - w)))
                    .collect(),
            );
        }
        rtm_obs::counter_add("engine.alias.tables", 2 * max_distance as u64);
        Self {
            noise,
            classes,
            raw,
            sts,
            mid_bounds,
        }
    }

    /// Sampler for the noise model derived from device parameters.
    pub fn from_params(params: &DeviceParams, max_distance: u32) -> Self {
        Self::new(NoiseModel::from_params(params), max_distance)
    }

    /// Highest tabulated shift distance.
    pub fn max_distance(&self) -> u32 {
        self.raw.len() as u32
    }

    /// The noise model the tables were built from.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Samples a raw (stage-1 only) `distance`-step outcome —
    /// distribution-equivalent to `settle(sample_error(distance))`.
    ///
    /// One RNG draw on the pinned path; the rare stop-in-middle path
    /// takes a second draw to place the fractional position by inverse
    /// CDF on the truncated Gaussian.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero or above [`Self::max_distance`].
    pub fn sample_raw(&self, distance: u32, rng: &mut SmallRng64) -> ShiftOutcome {
        let idx = self.table_index(distance);
        match self.classes[self.raw[idx].sample(rng)] {
            RawClass::Pinned(offset) => ShiftOutcome::Pinned { offset },
            RawClass::Mid(lower) => ShiftOutcome::StopInMiddle {
                lower,
                frac: self.mid_frac(idx, lower, rng),
            },
        }
    }

    /// Samples a full STS two-stage `distance`-step outcome — always
    /// pinned, always exactly one RNG draw.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero or above [`Self::max_distance`].
    pub fn sample_sts(&self, distance: u32, rng: &mut SmallRng64) -> ShiftOutcome {
        let idx = self.table_index(distance);
        let offset = STS_MIN + self.sts[idx].sample(rng) as i32;
        ShiftOutcome::Pinned { offset }
    }

    fn table_index(&self, distance: u32) -> usize {
        assert!(
            distance >= 1 && distance <= self.max_distance(),
            "distance {distance} outside tabulated range 1..={}",
            self.max_distance()
        );
        (distance - 1) as usize
    }

    /// Fractional position within flat `(lower, lower + 1)`, drawn from
    /// the error Gaussian conditioned on that interval.
    fn mid_frac(&self, idx: usize, lower: i32, rng: &mut SmallRng64) -> f64 {
        let (p_lo, p_hi) = self.mid_bounds[idx][(lower - RAW_MID_MIN) as usize];
        let w = self.noise.capture_half_window;
        if p_hi <= p_lo {
            // The class has (numerically) zero mass; the alias table
            // can only land here through threshold rounding, so any
            // legal position will do.
            return 0.5;
        }
        let p = p_lo + rng.next_f64() * (p_hi - p_lo);
        if p <= 0.0 || p >= 1.0 {
            return 0.5;
        }
        let d = idx as u32 + 1;
        let e = self.noise.mean_for(d) + self.noise.sigma_for(d) * normal_quantile(p);
        (e - lower as f64).clamp(w + 1e-12, 1.0 - w - 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> OutcomeAliasSampler {
        OutcomeAliasSampler::from_params(&DeviceParams::table1(), 7)
    }

    #[test]
    fn alias_table_matches_weights() {
        let table = AliasTable::new(&[1.0, 2.0, 7.0]);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        let mut rng = SmallRng64::new(9);
        let mut counts = [0u64; 3];
        let draws = 200_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, expected) in [0.1, 0.2, 0.7].iter().enumerate() {
            let freq = counts[i] as f64 / draws as f64;
            assert!(
                (freq - expected).abs() < 0.005,
                "class {i}: {freq} vs {expected}"
            );
        }
    }

    #[test]
    fn alias_table_handles_degenerate_mass() {
        // One class owns everything; the rest are exact zeros.
        let table = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = SmallRng64::new(1);
        for _ in 0..10_000 {
            assert_eq!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_zero_total() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn sts_samples_are_always_pinned() {
        let s = sampler();
        let mut rng = SmallRng64::new(77);
        for _ in 0..100_000 {
            match s.sample_sts(7, &mut rng) {
                ShiftOutcome::Pinned { offset } => {
                    assert!((STS_MIN..=STS_MAX).contains(&offset))
                }
                other => panic!("STS sample {other:?}"),
            }
        }
    }

    #[test]
    fn raw_samples_respect_settle_geometry() {
        let s = sampler();
        let noise = *s.noise();
        let w = noise.capture_half_window;
        let mut rng = SmallRng64::new(2024);
        let mut mids = 0u64;
        for _ in 0..2_000_000 {
            match s.sample_raw(7, &mut rng) {
                ShiftOutcome::Pinned { offset } => {
                    assert!((-3..=3).contains(&offset));
                }
                ShiftOutcome::StopInMiddle { lower, frac } => {
                    mids += 1;
                    assert!((-3..=2).contains(&lower));
                    assert!(frac > w && frac < 1.0 - w, "frac {frac}");
                }
            }
        }
        // Stop-in-middle mass at d=7 is small but clearly observable.
        let rate = mids as f64 / 2_000_000.0;
        let analytic = noise.raw_stop_in_middle_rate(7);
        assert!(
            (rate / analytic - 1.0).abs() < 0.25,
            "mid rate {rate:e} vs analytic {analytic:e}"
        );
    }

    #[test]
    fn sampler_rejects_out_of_range_distance() {
        let s = sampler();
        let mut rng = SmallRng64::new(3);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.sample_sts(8, &mut rng);
        }))
        .is_err());
    }

    #[test]
    fn equal_seeds_sample_identically() {
        let a = sampler();
        let b = sampler();
        let mut ra = SmallRng64::new(5);
        let mut rb = SmallRng64::new(5);
        for d in [1u32, 4, 7] {
            for _ in 0..1000 {
                assert_eq!(a.sample_sts(d, &mut ra), b.sample_sts(d, &mut rb));
            }
        }
    }
}
