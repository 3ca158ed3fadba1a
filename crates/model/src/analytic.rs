//! Closed-form (analytic) position-error engine.
//!
//! The paper derives Fig. 4 and Table 2 by brute-force Monte-Carlo over
//! its 1-D domain-wall model (10⁹ trials). Because [`NoiseModel`] makes
//! the n-step displacement error *exactly* Gaussian
//! (`mean_for`/`sigma_for`), every Fig. 4 bin probability is an erf
//! difference, computable in O(1):
//!
//! * a raw shift pins at offset `k` when the error lands in
//!   `(k − w, k + w)` and stops mid-flat in `(k + w, k + 1 − w)`;
//! * after the positive STS stage-2 push, the post-STS offset is `k`
//!   exactly when the error lands in the single band
//!   `(k − 1 + w, k + w)` — stop-in-middle mass folds forward into the
//!   next notch.
//!
//! [`AnalyticEngine`] evaluates those bands stably in both tails (log
//! survival functions, mirrored below the mean), reproduces the seven
//! Fig. 4 bins and the Table 2 ±k columns at any distance, and exposes
//! the same [`PositionPdf`] shape as the Monte-Carlo engine so figure
//! drivers can serve either through [`Engine::position_pdf`].
//! Multi-shift access sequences compose by convolution on the quantized
//! offset lattice ([`OffsetDistribution`]) — the same structure
//! position-coding work exploits when it treats over/under-shift as
//! deletions/insertions.
//!
//! Monte-Carlo stays as the validation oracle: property tests pin the
//! closed forms to 4·10⁶-trial runs within binomial error, and
//! `bench engine` gates the divergence in CI.

use crate::montecarlo::{BinEstimate, PositionBin, PositionPdf};
use crate::params::DeviceParams;
use crate::shift::NoiseModel;
use rtm_util::fit::GaussianFit;
use rtm_util::math::{erf, ln_normal_sf};
use rtm_util::stats::OnlineStats;

/// Which engine computes a position-error PDF (or samples outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Stochastic sampling of the displacement model — the validation
    /// oracle, O(trials) per PDF.
    MonteCarlo,
    /// Closed-form erf evaluation (PDFs) and alias-table sampling
    /// (outcomes) — exact and near-free.
    #[default]
    Analytic,
}

impl Engine {
    /// Short label for reports and JSON rows.
    pub const fn label(&self) -> &'static str {
        match self {
            Engine::MonteCarlo => "mc",
            Engine::Analytic => "analytic",
        }
    }

    /// The position-error PDF of a `distance`-step shift under
    /// `params`: `trials` simulations on `seed` for Monte-Carlo, the
    /// closed form for analytic (which needs neither, and whose PDF
    /// carries `trials == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0`, or (Monte-Carlo only) if `trials == 0`.
    pub fn position_pdf(
        &self,
        params: &DeviceParams,
        distance: u32,
        trials: u64,
        seed: u64,
    ) -> PositionPdf {
        match self {
            Engine::MonteCarlo => crate::montecarlo::position_pdf(params, distance, trials, seed),
            Engine::Analytic => AnalyticEngine::from_params(params).position_pdf(distance),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mc" | "montecarlo" | "monte-carlo" => Ok(Engine::MonteCarlo),
            "analytic" => Ok(Engine::Analytic),
            other => Err(format!("unknown engine {other}; expected mc or analytic")),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// `P(a < e < b)` for `e ~ N(mu, sigma)`, stable in both tails: bands
/// entirely above (below) the mean are evaluated as differences of log
/// survival functions (mirrored for the lower tail); bands spanning the
/// mean use the central erf difference directly.
pub(crate) fn gaussian_band(mu: f64, sigma: f64, a: f64, b: f64) -> f64 {
    debug_assert!(a < b, "band requires a < b");
    if a >= mu {
        let pa = ln_normal_sf((a - mu) / sigma).exp();
        let pb = ln_normal_sf((b - mu) / sigma).exp();
        (pa - pb).max(0.0)
    } else if b <= mu {
        // Mirror: P(a < e < b) = P(2mu - b < e' < 2mu - a).
        let pa = ln_normal_sf((mu - b) / sigma).exp();
        let pb = ln_normal_sf((mu - a) / sigma).exp();
        (pa - pb).max(0.0)
    } else {
        let sqrt2 = std::f64::consts::SQRT_2;
        let za = (a - mu) / (sigma * sqrt2);
        let zb = (b - mu) / (sigma * sqrt2);
        (0.5 * (erf(zb) - erf(za))).max(0.0)
    }
}

/// The closed-form position-error engine over one noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEngine {
    noise: NoiseModel,
}

impl AnalyticEngine {
    /// Engine over an explicit noise model.
    pub fn new(noise: NoiseModel) -> Self {
        Self { noise }
    }

    /// Engine over the noise model derived from device parameters.
    pub fn from_params(params: &DeviceParams) -> Self {
        Self::new(NoiseModel::from_params(params))
    }

    /// The underlying noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Closed-form probability that a raw (stage-1 only)
    /// `distance`-step shift lands in `bin` — the exact value the
    /// Fig. 4 Monte-Carlo estimates.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0`.
    pub fn raw_bin_probability(&self, distance: u32, bin: PositionBin) -> f64 {
        assert!(distance > 0, "distance must be positive");
        let mu = self.noise.mean_for(distance);
        let sigma = self.noise.sigma_for(distance);
        let w = self.noise.capture_half_window;
        match bin {
            PositionBin::AtStep(k) => gaussian_band(mu, sigma, k as f64 - w, k as f64 + w),
            PositionBin::Between(k) => gaussian_band(mu, sigma, k as f64 + w, k as f64 + 1.0 - w),
        }
    }

    /// Closed-form probability that an STS-repaired `distance`-step
    /// shift ends pinned exactly `offset` steps from the target.
    ///
    /// With positive STS the post-STS offset is `k` iff the continuous
    /// error lands in the single band `(k − 1 + w, k + w)`: pinning at
    /// notch `k` directly, or stopping in the flat below it and being
    /// pushed forward. The bands partition the real line, so these
    /// probabilities sum to one over all offsets.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0`.
    pub fn sts_offset_probability(&self, distance: u32, offset: i32) -> f64 {
        assert!(distance > 0, "distance must be positive");
        let mu = self.noise.mean_for(distance);
        let sigma = self.noise.sigma_for(distance);
        let w = self.noise.capture_half_window;
        gaussian_band(mu, sigma, offset as f64 - 1.0 + w, offset as f64 + w)
    }

    /// The Table 2 entry: probability of a ±k-step out-of-step error
    /// for a `distance`-step shift after STS.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` or `k == 0`.
    pub fn table2_rate(&self, distance: u32, k: u32) -> f64 {
        assert!(k > 0, "k must be positive (k = 0 is a correct shift)");
        self.sts_offset_probability(distance, k as i32)
            + self.sts_offset_probability(distance, -(k as i32))
    }

    /// Post-STS offset distribution of one `distance`-step shift on the
    /// quantized lattice (support ±[`OffsetDistribution::MAX_STEP`];
    /// the truncated tail mass, far below 1e-100 at Table 1 noise, is
    /// folded into the on-target bucket so the pmf sums to one).
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0`.
    pub fn sts_offset_distribution(&self, distance: u32) -> OffsetDistribution {
        let r = OffsetDistribution::MAX_STEP;
        let mut pmf: Vec<f64> = (-r..=r)
            .map(|k| self.sts_offset_probability(distance, k))
            .collect();
        let total: f64 = pmf.iter().sum();
        pmf[r as usize] += (1.0 - total).max(0.0);
        OffsetDistribution {
            min_offset: -r,
            pmf,
        }
    }

    /// Composes the per-shift offset distributions of an access
    /// sequence by convolution: the returned distribution is the exact
    /// end-of-run head misalignment predicted by the model (each shift
    /// independent, errors additive on the notch lattice).
    ///
    /// # Panics
    ///
    /// Panics if any distance is zero.
    pub fn sequence_offset_distribution(&self, distances: &[u32]) -> OffsetDistribution {
        rtm_obs::counter_add("engine.convolutions", 1);
        distances
            .iter()
            .fold(OffsetDistribution::point(0), |acc, &d| {
                acc.convolve(&self.sts_offset_distribution(d))
            })
    }

    /// The [`PositionPdf`] of a raw `distance`-step shift with every
    /// bin filled from the closed form (`trials == 0`, no samples; the
    /// per-bin `probability()` accessor serves the analytic column).
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0`.
    pub fn position_pdf(&self, distance: u32) -> PositionPdf {
        rtm_obs::counter_add("engine.analytic.pdfs", 1);
        let fit = GaussianFit {
            mu: self.noise.mean_for(distance),
            sigma: self.noise.sigma_for(distance),
        };
        let bins = PositionBin::FIG4
            .iter()
            .map(|&bin| BinEstimate {
                bin,
                samples: 0,
                empirical: 0.0,
                analytic: self.raw_bin_probability(distance, bin),
            })
            .collect();
        PositionPdf {
            distance,
            trials: 0,
            bins,
            fit,
            error_stats: OnlineStats::new(),
        }
    }

    /// An engine whose noise model is re-fitted so the closed-form ±1
    /// rates reproduce the paper's Table 2 anchors **exactly**:
    /// 4.55·10⁻⁵ at distance 1 and 1.10·10⁻³ at distance 7.
    ///
    /// The two anchors pin the two free sigmas: bisection solves the
    /// total sigma at each anchor distance (the ±1 band mass is
    /// monotone in sigma there), then
    /// `sigma_walk² = (σ₇² − σ₁²)/6` and
    /// `sigma_fixed² = σ₁² − sigma_walk²` recover the fixed/random-walk
    /// split. Drift and capture window keep their Table 1 values.
    pub fn calibrated_to_table2() -> Self {
        let base = NoiseModel::from_params(&DeviceParams::table1());
        let w = base.capture_half_window;
        let drift = base.drift_per_step;
        let solve = |distance: u32, target: f64| -> f64 {
            let mu = drift * distance as f64;
            let rate = |sigma: f64| {
                gaussian_band(mu, sigma, w, 1.0 + w) + gaussian_band(mu, sigma, -2.0 + w, -1.0 + w)
            };
            let (mut lo, mut hi) = (5e-3, 0.1);
            debug_assert!(rate(lo) < target && rate(hi) > target);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if rate(mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let s1 = solve(1, 4.55e-5);
        let s7 = solve(7, 1.10e-3);
        let walk2 = ((s7 * s7 - s1 * s1) / 6.0).max(0.0);
        let fixed2 = (s1 * s1 - walk2).max(0.0);
        Self::new(NoiseModel {
            sigma_fixed: fixed2.sqrt(),
            sigma_walk: walk2.sqrt(),
            drift_per_step: drift,
            capture_half_window: w,
        })
    }
}

/// A probability mass function over integer head offsets (steps away
/// from the intended position), the lattice on which multi-shift error
/// accumulation convolves.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetDistribution {
    /// Offset of `pmf[0]`.
    min_offset: i32,
    /// Probability mass per consecutive offset.
    pmf: Vec<f64>,
}

impl OffsetDistribution {
    /// Per-shift support half-width: ±k beyond this carries mass far
    /// below 1e-100 for any realistic drive and is truncated.
    pub const MAX_STEP: i32 = 4;

    /// Mass below which support entries are trimmed after a convolve.
    const TRIM_EPS: f64 = 1e-300;

    /// The deterministic distribution concentrated at `offset`.
    pub fn point(offset: i32) -> Self {
        Self {
            min_offset: offset,
            pmf: vec![1.0],
        }
    }

    /// Probability of offset `k` (zero outside the support).
    pub fn prob(&self, k: i32) -> f64 {
        let idx = k as i64 - self.min_offset as i64;
        if idx < 0 || idx as usize >= self.pmf.len() {
            0.0
        } else {
            self.pmf[idx as usize]
        }
    }

    /// Inclusive support bounds `(min, max)`.
    pub fn support(&self) -> (i32, i32) {
        (self.min_offset, self.min_offset + self.pmf.len() as i32 - 1)
    }

    /// Total probability mass (1 up to truncation).
    pub fn total_mass(&self) -> f64 {
        self.pmf.iter().sum()
    }

    /// Probability that the head ends *anywhere but* perfectly aligned
    /// — the end-of-run misalignment mass the convolution layer
    /// predicts for an access sequence.
    pub fn misalignment_probability(&self) -> f64 {
        (1.0 - self.prob(0)).max(0.0)
    }

    /// The distribution of the sum of two independent offsets.
    pub fn convolve(&self, other: &Self) -> Self {
        let mut pmf = vec![0.0; self.pmf.len() + other.pmf.len() - 1];
        for (i, &p) in self.pmf.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for (j, &q) in other.pmf.iter().enumerate() {
                pmf[i + j] += p * q;
            }
        }
        let mut out = Self {
            min_offset: self.min_offset + other.min_offset,
            pmf,
        };
        out.trim();
        out
    }

    /// Drops leading/trailing entries whose mass underflowed to keep
    /// long compositions bounded.
    fn trim(&mut self) {
        let first = self.pmf.iter().position(|&p| p > Self::TRIM_EPS);
        let last = self.pmf.iter().rposition(|&p| p > Self::TRIM_EPS);
        match (first, last) {
            (Some(f), Some(l)) => {
                self.pmf.drain(l + 1..);
                self.pmf.drain(..f);
                self.min_offset += f as i32;
            }
            _ => {
                self.min_offset = 0;
                self.pmf = vec![0.0];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::OutOfStepRates;

    fn engine() -> AnalyticEngine {
        AnalyticEngine::from_params(&DeviceParams::table1())
    }

    #[test]
    fn engine_parses_and_labels() {
        assert_eq!("mc".parse::<Engine>().unwrap(), Engine::MonteCarlo);
        assert_eq!("montecarlo".parse::<Engine>().unwrap(), Engine::MonteCarlo);
        assert_eq!("analytic".parse::<Engine>().unwrap(), Engine::Analytic);
        assert!("fft".parse::<Engine>().is_err());
        assert_eq!(Engine::Analytic.to_string(), "analytic");
        assert_eq!(Engine::default(), Engine::Analytic);
    }

    #[test]
    fn band_is_stable_in_both_tails() {
        // Lower-tail band of a far-out bin must be tiny but finite, not
        // a cancellation artefact near 1e-16.
        let p = gaussian_band(0.0, 0.03, -1.2, -1.1);
        assert!(p > 0.0 && p < 1e-200, "lower tail {p:e}");
        let q = gaussian_band(0.0, 0.03, 1.1, 1.2);
        assert!((p / q - 1.0).abs() < 1e-9, "tails must mirror");
        // Central band ~ full mass.
        assert!((gaussian_band(0.0, 0.03, -1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sts_offsets_partition_unity() {
        let e = engine();
        for d in 1..=7 {
            let total: f64 = (-30..=30).map(|k| e.sts_offset_probability(d, k)).sum();
            assert!((total - 1.0).abs() < 1e-12, "d={d}: {total}");
        }
    }

    #[test]
    fn sts_offset_is_raw_pin_plus_mid_below() {
        let e = engine();
        for d in [1u32, 4, 7] {
            for k in -2..=2 {
                let composed = e.raw_bin_probability(d, PositionBin::AtStep(k))
                    + e.raw_bin_probability(d, PositionBin::Between(k - 1));
                let direct = e.sts_offset_probability(d, k);
                assert!(
                    (composed - direct).abs() <= 1e-15 * direct.max(1e-300),
                    "d={d} k={k}: {composed:e} vs {direct:e}"
                );
            }
        }
    }

    #[test]
    fn table2_rates_match_rate_table_regeneration() {
        // The closed form and rates::from_noise_model evaluate the same
        // bands (the latter with a z clamp irrelevant at k=1).
        let e = engine();
        let table = OutOfStepRates::from_noise_model(e.noise());
        for d in 1..=7 {
            let a = e.table2_rate(d, 1);
            let b = table.rate(d, 1);
            assert!(
                ((a - b) / b).abs() < 1e-6,
                "d={d}: engine {a:e} vs table {b:e}"
            );
        }
    }

    #[test]
    fn calibrated_engine_hits_table2_anchors_exactly() {
        let e = AnalyticEngine::calibrated_to_table2();
        let r1 = e.table2_rate(1, 1);
        let r7 = e.table2_rate(7, 1);
        assert!(((r1 - 4.55e-5) / 4.55e-5).abs() < 1e-9, "r1 {r1:e}");
        assert!(((r7 - 1.10e-3) / 1.10e-3).abs() < 1e-9, "r7 {r7:e}");
        // The interior distances interpolate monotonically between them.
        for d in 1..7 {
            assert!(e.table2_rate(d + 1, 1) > e.table2_rate(d, 1));
        }
        // And the re-fitted sigmas stay physically plausible (same
        // order as the Table 1 derivation).
        assert!((0.02..0.04).contains(&e.noise().sigma_fixed));
        assert!((0.004..0.02).contains(&e.noise().sigma_walk));
    }

    #[test]
    fn engine_dispatches_position_pdf() {
        let p = DeviceParams::table1();
        assert_eq!(
            Engine::MonteCarlo.position_pdf(&p, 3, 10_000, 77),
            crate::montecarlo::position_pdf(&p, 3, 10_000, 77)
        );
        // The closed form ignores trials and seed.
        assert_eq!(
            Engine::Analytic.position_pdf(&p, 3, 10_000, 77),
            Engine::Analytic.position_pdf(&p, 3, 999, 12345)
        );
    }

    #[test]
    fn analytic_pdf_has_closed_form_bins() {
        let pdf = Engine::Analytic.position_pdf(&DeviceParams::table1(), 4, 0, 0);
        assert_eq!(pdf.trials, 0);
        assert_eq!(pdf.bins.len(), 7);
        let total: f64 = pdf.bins.iter().map(|b| b.probability()).sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
        assert!(pdf.success_probability() > 0.99);
        for b in &pdf.bins {
            assert_eq!(b.samples, 0);
            assert_eq!(b.probability(), b.analytic);
        }
    }

    #[test]
    fn convolution_composes_point_masses() {
        let a = OffsetDistribution::point(2);
        let b = OffsetDistribution::point(-3);
        let c = a.convolve(&b);
        assert_eq!(c.prob(-1), 1.0);
        assert_eq!(c.support(), (-1, -1));
        assert_eq!(c.misalignment_probability(), 1.0);
    }

    #[test]
    fn sequence_misalignment_grows_with_length() {
        let e = engine();
        let short = e.sequence_offset_distribution(&[1, 1]);
        let long = e.sequence_offset_distribution(&[7; 16]);
        assert!((short.total_mass() - 1.0).abs() < 1e-9);
        assert!((long.total_mass() - 1.0).abs() < 1e-9);
        assert!(long.misalignment_probability() > short.misalignment_probability());
        // First-order check: for independent rare errors the sequence
        // misalignment is ≈ the sum of per-shift error rates.
        let per = e.table2_rate(7, 1);
        let approx = 16.0 * per;
        let exact = long.misalignment_probability();
        assert!(
            (exact / approx - 1.0).abs() < 0.05,
            "exact {exact:e} vs first-order {approx:e}"
        );
    }

    #[test]
    fn empty_sequence_is_perfectly_aligned() {
        let d = engine().sequence_offset_distribution(&[]);
        assert_eq!(d.prob(0), 1.0);
        assert_eq!(d.misalignment_probability(), 0.0);
    }
}
