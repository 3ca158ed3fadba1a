//! Single-shot stochastic shift simulation.
//!
//! # Displacement-noise model
//!
//! A shift of `n` steps drives all walls with a stage-1 pulse timed for
//! the *nominal* device. Parameter variation makes the realised wall
//! displacement differ from `n` by an error `e` (in step units):
//!
//! ```text
//! e = drift·n + σ_f·G₁ + σ_w·√n·G₂        G₁, G₂ ~ N(0,1)
//! ```
//!
//! * `drift` — systematic over-/under-shoot per step. At the paper's
//!   chosen drive (J = 2·J₀) it is small and positive, producing the
//!   +/− asymmetry visible in Fig. 4; under-driving makes it negative
//!   (under-shift), over-driving more positive.
//! * `σ_f` — per-shift environmental noise (thermal/drive jitter),
//!   independent of distance.
//! * `σ_w` — per-step process variation of each etched notch/flat
//!   feature; successive steps cross physically distinct features, so
//!   the contributions accumulate as a random walk (`√n`).
//!
//! The wall then settles: if the final continuous position lies within
//! the notch **capture window** (±w of a notch centre, with w from the
//! Table 1 geometry) it pins there — an *out-of-step* error when the
//! notch is not the intended one; otherwise it halts in a flat region —
//! a *stop-in-middle* error. The optional STS stage-2 pulse pushes a
//! mid-flat wall forward into the next notch, which both eliminates
//! stop-in-middle outcomes and (for positive STS) silently *repairs*
//! under-shoot stop-in-middle cases — exactly the conversion the paper
//! describes in Section 4.1.
//!
//! With the Table 1 parameters this model reproduces the paper's Table 2
//! ±1-step rates within ~30 % across all distances 1–7 (see the tests
//! and `rates::OutOfStepRates::from_noise_model`).

use crate::params::DeviceParams;
use crate::rates::MAX_TABULATED_DISTANCE;
use rtm_util::rng::{box_muller, SmallRng64};

/// Calibration constant converting per-step *timing* variation into
/// *displacement* error. Pinning at intermediate notches partially
/// re-centres a wall, so only part of the accumulated timing error
/// survives as position error; 0.45 reproduces the paper's Table 2
/// distance scaling.
const DISPLACEMENT_CONVERSION: f64 = 0.45;

/// Drift per step at the nominal drive ratio (J = 2·J₀).
const DRIFT_AT_NOMINAL: f64 = 0.0005;

/// Sensitivity of drift to the drive ratio around the nominal point.
const DRIFT_PER_RATIO: f64 = 0.05;

/// Outcome of one shift operation, relative to the intended target
/// position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftOutcome {
    /// All walls pinned in notch regions, `offset` steps away from the
    /// intended position (0 = success, +1 = over-shift by one, …).
    Pinned {
        /// Signed out-of-step offset in steps; 0 means a correct shift.
        offset: i32,
    },
    /// Walls halted between notches: the misaligned domain sits a
    /// fraction `frac ∈ (0, 1)` past notch `target + lower`.
    StopInMiddle {
        /// Notch index below the stopping point, relative to the target.
        lower: i32,
        /// Fractional position within the flat region, in `(0, 1)`.
        frac: f64,
    },
}

impl ShiftOutcome {
    /// True when the shift landed exactly on target.
    pub fn is_success(&self) -> bool {
        matches!(self, ShiftOutcome::Pinned { offset: 0 })
    }

    /// The out-of-step offset, or `None` for a stop-in-middle outcome.
    pub fn step_offset(&self) -> Option<i32> {
        match self {
            ShiftOutcome::Pinned { offset } => Some(*offset),
            ShiftOutcome::StopInMiddle { .. } => None,
        }
    }
}

/// The derived noise parameters of the displacement model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Distance-independent per-shift sigma (environmental).
    pub sigma_fixed: f64,
    /// Per-step random-walk sigma (process, per etched feature).
    pub sigma_walk: f64,
    /// Systematic drift per step (positive = over-shoot).
    pub drift_per_step: f64,
    /// Notch capture half-window in step units.
    pub capture_half_window: f64,
}

impl NoiseModel {
    /// Derives the noise model from device parameters.
    pub fn from_params(params: &DeviceParams) -> Self {
        // Share of the nominal step time spent in each region: the notch
        // is 45/195 ≈ 23 % of the pitch and slows the wall, so it takes
        // a larger share.
        const FLAT_SHARE: f64 = 0.65;
        const NOTCH_SHARE: f64 = 0.35;
        let flat_sigma = params.flat_width_rel_sigma_of_d * FLAT_SHARE;
        let notch_sigma =
            (params.pin_depth_rel_sigma.powi(2) + params.notch_width_rel_sigma.powi(2)).sqrt()
                * NOTCH_SHARE;
        let per_step_process = (flat_sigma * flat_sigma + notch_sigma * notch_sigma).sqrt();
        Self {
            sigma_fixed: params.env_velocity_rel_sigma,
            sigma_walk: DISPLACEMENT_CONVERSION * per_step_process,
            drift_per_step: DRIFT_AT_NOMINAL + DRIFT_PER_RATIO * (params.drive_ratio - 2.0),
            capture_half_window: params.capture_half_window(),
        }
    }

    /// Standard deviation of the displacement error for an `n`-step shift.
    pub fn sigma_for(&self, n: u32) -> f64 {
        (self.sigma_fixed * self.sigma_fixed + self.sigma_walk * self.sigma_walk * n as f64).sqrt()
    }

    /// Mean displacement error for an `n`-step shift.
    pub fn mean_for(&self, n: u32) -> f64 {
        self.drift_per_step * n as f64
    }

    /// Analytic probability that a raw (stage-1 only) `n`-step shift
    /// ends stop-in-middle — the error class STS exists to repair.
    /// Evaluated over the ±3-step neighbourhood, which holds all the
    /// mass for any realistic drive.
    pub fn raw_stop_in_middle_rate(&self, n: u32) -> f64 {
        let mu = self.mean_for(n);
        let sigma = self.sigma_for(n);
        let w = self.capture_half_window;
        let cdf = |x: f64| 1.0 - rtm_util::math::normal_sf((x - mu) / sigma);
        (-3i32..=3)
            .map(|k| {
                let lo = k as f64 + w;
                let hi = k as f64 + 1.0 - w;
                (cdf(hi) - cdf(lo)).max(0.0)
            })
            .sum()
    }

    /// Samples one displacement error for an `n`-step shift.
    pub fn sample_error(&self, n: u32, rng: &mut SmallRng64) -> f64 {
        let g1 = rng.next_gaussian();
        let g2 = rng.next_gaussian();
        self.error_from(n, g1, g2)
    }

    /// The displacement error of an `n`-step shift whose fixed and walk
    /// terms drew the standard normals `g1` and `g2`.
    fn error_from(&self, n: u32, g1: f64, g2: f64) -> f64 {
        self.mean_for(n) + self.sigma_fixed * g1 + self.sigma_walk * (n as f64).sqrt() * g2
    }

    /// Resolves a continuous displacement error into a settle outcome
    /// (no STS): pin if within the capture window of a notch, otherwise
    /// stop in the flat region.
    pub fn settle(&self, error: f64) -> ShiftOutcome {
        let nearest = error.round();
        if (error - nearest).abs() <= self.capture_half_window {
            ShiftOutcome::Pinned {
                offset: nearest as i32,
            }
        } else {
            let lower = error.floor();
            ShiftOutcome::StopInMiddle {
                lower: lower as i32,
                frac: error - lower,
            }
        }
    }

    /// Applies a positive STS stage-2 pulse to a settle outcome: any wall
    /// stranded mid-flat is pushed forward into the next notch.
    pub fn apply_sts(&self, outcome: ShiftOutcome) -> ShiftOutcome {
        match outcome {
            ShiftOutcome::Pinned { .. } => outcome,
            ShiftOutcome::StopInMiddle { lower, .. } => ShiftOutcome::Pinned { offset: lower + 1 },
        }
    }
}

/// Margin the early exit of [`GaussianSampler`] keeps inside the
/// capture reach, as a fraction of that reach: some 10⁷ times the f64
/// rounding of the error formula, and far too small to change how often
/// the exit fires.
const EARLY_EXIT_MARGIN: f64 = 1e-9;

/// The direct Gaussian pipeline, `settle(sample_error(n))`, with an
/// exact early exit for the common case: the shift lands at offset 0.
///
/// A raw `n`-step shift draws four uniforms, the Box–Muller pairs
/// `(u1, u2)` of its fixed and walk normals, and its error is
/// `e = μn + σf·r1·cos(2πu2) + σw·√n·r2·cos(2πu2')` with
/// `r = √(−2 ln u1)`. Whatever the angles,
/// `|e| ≤ |μn| + σf·r1 + σw·√n·r2`. Construction precomputes, per
/// distance `1..=MAX_TABULATED_DISTANCE`, one lower bound
/// `exp(−R²/2)` on both radius uniforms, with the radius cap
/// `R = (reach − |μn| − margin) / (σf + σw·√n)` and the capture reach
/// `min(w, ½)`. When both `u1`s clear it, `|e|` is below the reach, so
/// the shift pins at offset 0 and `ln`, `sqrt` and `cos` are never
/// called; otherwise the full formula runs on the same uniforms. Every
/// draw therefore consumes the generator and returns the outcome
/// exactly as [`NoiseModel::sample_error`] followed by
/// [`NoiseModel::settle`] does. Longer distances always take the full
/// formula.
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    noise: NoiseModel,
    /// `clear[n − 1]`: the bound both radius uniforms of an `n`-step
    /// shift must reach for the early exit; `+∞` where the mean alone
    /// leaves too little of the window.
    clear: [f64; MAX_TABULATED_DISTANCE as usize],
}

impl GaussianSampler {
    /// A sampler over `noise`, with the early-exit bounds of distances
    /// `1..=MAX_TABULATED_DISTANCE` precomputed.
    pub fn new(noise: NoiseModel) -> Self {
        // Any |e| below min(w, ½) rounds to notch 0 and lies inside its
        // capture window.
        let reach = noise.capture_half_window.min(0.5);
        let clear = std::array::from_fn(|i| {
            let n = i as u32 + 1;
            let budget = reach - noise.mean_for(n).abs() - EARLY_EXIT_MARGIN * reach;
            if budget <= 0.0 {
                return f64::INFINITY;
            }
            let spread = noise.sigma_fixed.abs() + (noise.sigma_walk * (n as f64).sqrt()).abs();
            let radius = budget / spread;
            (-0.5 * radius * radius).exp()
        });
        Self { noise, clear }
    }

    /// The underlying noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The early-exit bound on both radius uniforms of an `n`-step
    /// shift, or `None` for an untabulated distance.
    pub fn clear_bound(&self, n: u32) -> Option<f64> {
        n.checked_sub(1)
            .and_then(|i| self.clear.get(i as usize))
            .copied()
    }

    /// The raw outcome of an `n`-step shift whose fixed and walk normals
    /// come from the Box–Muller uniform pairs `g1` and `g2`.
    pub fn settle_uniforms(&self, n: u32, g1: (f64, f64), g2: (f64, f64)) -> ShiftOutcome {
        if let Some(bound) = self.clear_bound(n) {
            if g1.0 >= bound && g2.0 >= bound {
                return ShiftOutcome::Pinned { offset: 0 };
            }
        }
        let e = self
            .noise
            .error_from(n, box_muller(g1.0, g1.1), box_muller(g2.0, g2.1));
        self.noise.settle(e)
    }

    /// Samples a raw (stage-1 only) `n`-step outcome: the draws and the
    /// outcome of `settle(sample_error(n, rng))`.
    pub fn sample_raw(&self, n: u32, rng: &mut SmallRng64) -> ShiftOutcome {
        let g1 = rng.next_box_muller_uniforms();
        let g2 = rng.next_box_muller_uniforms();
        self.settle_uniforms(n, g1, g2)
    }

    /// Samples an STS `n`-step outcome: [`GaussianSampler::sample_raw`]
    /// with the stage-2 push applied.
    pub fn sample_sts(&self, n: u32, rng: &mut SmallRng64) -> ShiftOutcome {
        self.noise.apply_sts(self.sample_raw(n, rng))
    }
}

/// A reusable stochastic shift simulator (one per stripe or per
/// experiment).
///
/// By default outcomes come from the direct Gaussian pipeline
/// ([`GaussianSampler`]: four uniforms per shift, and the Box–Muller
/// transform and `settle` only when the early exit cannot rule out an
/// error). [`ShiftSimulator::with_engine`] selects the alias-table fast
/// path instead: distribution-equivalent outcomes from one RNG draw and
/// two array reads per shift (see [`crate::alias`]). The two paths
/// consume the RNG differently, so equal seeds give different (equally
/// valid) sample streams.
///
/// # Examples
///
/// ```
/// use rtm_model::params::DeviceParams;
/// use rtm_model::shift::ShiftSimulator;
///
/// let mut sim = ShiftSimulator::new(DeviceParams::table1(), 42);
/// let outcome = sim.shift_with_sts(4);
/// // The overwhelmingly common case is a correct shift.
/// assert!(outcome.step_offset().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ShiftSimulator {
    gaussian: GaussianSampler,
    rng: SmallRng64,
    sampler: Option<crate::alias::OutcomeAliasSampler>,
}

impl ShiftSimulator {
    /// Creates a simulator for the given device parameters and RNG seed.
    pub fn new(params: DeviceParams, seed: u64) -> Self {
        Self::from_noise(NoiseModel::from_params(&params), seed)
    }

    /// Creates a simulator directly from a noise model (used by
    /// calibration sweeps).
    pub fn from_noise(noise: NoiseModel, seed: u64) -> Self {
        Self {
            gaussian: GaussianSampler::new(noise),
            rng: SmallRng64::new(seed),
            sampler: None,
        }
    }

    /// Creates a simulator whose outcomes are produced by the chosen
    /// engine: [`crate::analytic::Engine::MonteCarlo`] is the direct
    /// Gaussian pipeline (same as [`ShiftSimulator::new`]),
    /// [`crate::analytic::Engine::Analytic`] precomputes alias tables
    /// for distances `1..=crate::rates::MAX_TABULATED_DISTANCE` and
    /// samples in O(1).
    pub fn with_engine(params: DeviceParams, seed: u64, engine: crate::analytic::Engine) -> Self {
        let mut sim = Self::new(params, seed);
        if engine == crate::analytic::Engine::Analytic {
            sim.sampler = Some(crate::alias::OutcomeAliasSampler::new(
                *sim.noise(),
                MAX_TABULATED_DISTANCE,
            ));
        }
        sim
    }

    /// The underlying noise model.
    pub fn noise(&self) -> &NoiseModel {
        self.gaussian.noise()
    }

    /// Simulates a raw (stage-1 only) `n`-step shift, as in Fig. 4.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (or, on the alias fast path, if `n` exceeds
    /// the tabulated distance range).
    pub fn shift_raw(&mut self, n: u32) -> ShiftOutcome {
        assert!(n > 0, "a shift must move at least one step");
        if let Some(sampler) = &self.sampler {
            return sampler.sample_raw(n, &mut self.rng);
        }
        self.gaussian.sample_raw(n, &mut self.rng)
    }

    /// Simulates a full STS two-stage `n`-step shift: stop-in-middle
    /// outcomes are converted to out-of-step per Section 4.1.
    ///
    /// On the alias fast path this is a single table draw — the STS
    /// tables already fold the stage-2 push into the outcome classes,
    /// so no fractional mid-flat position is ever materialised.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (or, on the alias fast path, if `n` exceeds
    /// the tabulated distance range).
    pub fn shift_with_sts(&mut self, n: u32) -> ShiftOutcome {
        assert!(n > 0, "a shift must move at least one step");
        if let Some(sampler) = &self.sampler {
            return sampler.sample_sts(n, &mut self.rng);
        }
        self.gaussian.sample_sts(n, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NoiseModel {
        NoiseModel::from_params(&DeviceParams::table1())
    }

    #[test]
    fn noise_model_matches_calibration_targets() {
        let m = model();
        // These constants anchor the Table 2 reproduction; see module doc.
        assert!(
            (m.sigma_fixed - 0.028).abs() < 1e-3,
            "sigma_f {}",
            m.sigma_fixed
        );
        assert!(
            (m.sigma_walk - 0.0096).abs() < 1.5e-3,
            "sigma_w {}",
            m.sigma_walk
        );
        assert!(m.drift_per_step > 0.0 && m.drift_per_step < 0.01);
        assert!((m.capture_half_window - 45.0 / 390.0).abs() < 1e-9);
    }

    #[test]
    fn sigma_grows_with_distance() {
        let m = model();
        assert!(m.sigma_for(7) > m.sigma_for(1));
        // ... but sub-linearly (random walk, not correlated drift).
        assert!(m.sigma_for(7) < 7.0 * m.sigma_for(1));
    }

    #[test]
    fn settle_classifies_regions() {
        let m = model();
        let w = m.capture_half_window;
        assert_eq!(m.settle(0.0), ShiftOutcome::Pinned { offset: 0 });
        assert_eq!(m.settle(w * 0.99), ShiftOutcome::Pinned { offset: 0 });
        assert_eq!(m.settle(1.0 + w * 0.5), ShiftOutcome::Pinned { offset: 1 });
        assert_eq!(m.settle(-1.0), ShiftOutcome::Pinned { offset: -1 });
        match m.settle(0.5) {
            ShiftOutcome::StopInMiddle { lower: 0, frac } => {
                assert!((frac - 0.5).abs() < 1e-12)
            }
            other => panic!("expected stop-in-middle, got {other:?}"),
        }
        match m.settle(-0.5) {
            ShiftOutcome::StopInMiddle { lower: -1, frac } => {
                assert!((frac - 0.5).abs() < 1e-12)
            }
            other => panic!("expected stop-in-middle, got {other:?}"),
        }
    }

    #[test]
    fn sts_pushes_forward() {
        let m = model();
        // Over-shoot middle becomes a +1 out-of-step error...
        let out = m.apply_sts(ShiftOutcome::StopInMiddle {
            lower: 0,
            frac: 0.4,
        });
        assert_eq!(out, ShiftOutcome::Pinned { offset: 1 });
        // ...while an under-shoot middle is silently repaired.
        let fixed = m.apply_sts(ShiftOutcome::StopInMiddle {
            lower: -1,
            frac: 0.6,
        });
        assert_eq!(fixed, ShiftOutcome::Pinned { offset: 0 });
        // Pinned outcomes are untouched.
        let pinned = ShiftOutcome::Pinned { offset: -2 };
        assert_eq!(m.apply_sts(pinned), pinned);
    }

    #[test]
    fn sts_eliminates_stop_in_middle() {
        let mut sim = ShiftSimulator::new(DeviceParams::table1(), 7);
        for _ in 0..200_000 {
            let out = sim.shift_with_sts(7);
            assert!(out.step_offset().is_some(), "STS left {out:?}");
        }
    }

    #[test]
    fn one_step_error_rate_near_table2() {
        // Table 2: ±1 rate for a 1-step shift is 4.55e-5. With 4e6 trials
        // we expect ~180 errors; accept a factor-2 band.
        let mut sim = ShiftSimulator::new(DeviceParams::table1(), 99);
        let n = 4_000_000u32;
        let mut errors = 0u64;
        for _ in 0..n {
            if !sim.shift_with_sts(1).is_success() {
                errors += 1;
            }
        }
        let rate = errors as f64 / n as f64;
        assert!(
            rate > 4.55e-5 / 2.0 && rate < 4.55e-5 * 2.0,
            "1-step error rate {rate:.3e} vs paper 4.55e-5"
        );
    }

    #[test]
    fn seven_step_error_rate_near_table2() {
        // Table 2: ±1 rate for a 7-step shift is 1.10e-3.
        let mut sim = ShiftSimulator::new(DeviceParams::table1(), 1234);
        let n = 1_000_000u32;
        let mut errors = 0u64;
        for _ in 0..n {
            if !sim.shift_with_sts(7).is_success() {
                errors += 1;
            }
        }
        let rate = errors as f64 / n as f64;
        assert!(
            rate > 1.10e-3 / 2.0 && rate < 1.10e-3 * 2.0,
            "7-step error rate {rate:.3e} vs paper 1.10e-3"
        );
    }

    #[test]
    fn error_rate_monotone_in_distance() {
        let mut rates = Vec::new();
        for dist in [1u32, 4, 7] {
            let mut sim = ShiftSimulator::new(DeviceParams::table1(), 5 + dist as u64);
            let n = 1_000_000;
            let errors = (0..n)
                .filter(|_| !sim.shift_with_sts(dist).is_success())
                .count();
            rates.push(errors as f64 / n as f64);
        }
        assert!(rates[0] < rates[1] && rates[1] < rates[2], "{rates:?}");
    }

    #[test]
    fn over_shift_dominates_under_shift_after_sts() {
        let mut sim = ShiftSimulator::new(DeviceParams::table1(), 321);
        let (mut plus, mut minus) = (0u64, 0u64);
        for _ in 0..3_000_000 {
            match sim.shift_with_sts(7) {
                ShiftOutcome::Pinned { offset } if offset > 0 => plus += 1,
                ShiftOutcome::Pinned { offset } if offset < 0 => minus += 1,
                _ => {}
            }
        }
        assert!(plus > 0);
        // Positive STS converts all over-shoot middles into +1 and
        // repairs under-shoot middles, so + must dominate.
        assert!(plus > 10 * minus.max(1), "plus {plus}, minus {minus}");
    }

    #[test]
    fn under_drive_biases_negative() {
        let params = DeviceParams::table1().with_drive_ratio(1.3);
        let m = NoiseModel::from_params(&params);
        assert!(m.drift_per_step < 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_step_shift_rejected() {
        let mut sim = ShiftSimulator::new(DeviceParams::table1(), 1);
        let _ = sim.shift_raw(0);
    }

    #[test]
    fn engine_simulator_matches_closed_form_error_rate() {
        use crate::analytic::{AnalyticEngine, Engine};
        let mut sim = ShiftSimulator::with_engine(DeviceParams::table1(), 8080, Engine::Analytic);
        let expected = 1.0 - AnalyticEngine::new(*sim.noise()).sts_offset_probability(7, 0);
        let n = 2_000_000u64;
        let mut errors = 0u64;
        for _ in 0..n {
            if !sim.shift_with_sts(7).is_success() {
                errors += 1;
            }
        }
        let rate = errors as f64 / n as f64;
        let tol = 3.0 * (expected * (1.0 - expected) / n as f64).sqrt();
        assert!(
            (rate - expected).abs() < tol,
            "alias rate {rate:.3e} vs closed form {expected:.3e} (tol {tol:.3e})"
        );
    }

    #[test]
    fn mc_engine_simulator_is_the_default_pipeline() {
        use crate::analytic::Engine;
        let mut a = ShiftSimulator::with_engine(DeviceParams::table1(), 5, Engine::MonteCarlo);
        let mut b = ShiftSimulator::new(DeviceParams::table1(), 5);
        for _ in 0..1000 {
            assert_eq!(a.shift_with_sts(4), b.shift_with_sts(4));
        }
    }
}
