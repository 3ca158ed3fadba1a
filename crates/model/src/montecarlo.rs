//! Monte-Carlo estimation of the position-error PDF (the paper's
//! Fig. 4) with Gaussian tail extrapolation.
//!
//! The paper samples its 1-D domain-wall model 10⁹ times and fits the
//! result to plot densities far below the sampling floor. We follow the
//! same recipe at a laptop-friendly sample count: simulate raw (stage-1
//! only) shifts, bucket outcomes into the seven Fig. 4 bins, and attach a
//! Gaussian fit of the *displacement* distribution so tail bins that saw
//! zero samples still receive an analytic probability.

use crate::analytic::Engine;
use crate::params::DeviceParams;
use crate::shift::{NoiseModel, ShiftOutcome};
use rtm_util::fit::GaussianFit;
use rtm_util::rng::SmallRng64;
use rtm_util::stats::OnlineStats;
use std::collections::HashMap;

/// Trials per Monte-Carlo chunk. The chunk layout depends only on the
/// trial count (never the worker count), and each chunk runs an
/// independent RNG stream seeded with
/// `rtm_util::rng::derive_seed(seed, chunk_index)`, so a run's output
/// is bit-identical for any `--threads` setting.
pub const MC_CHUNK_TRIALS: u64 = 1 << 16;

/// The bins of Fig. 4, covering offsets from −2 to +2 around the target.
///
/// `AtStep(k)` is an out-of-step pin at offset `k`; `Between(k)` is a
/// stop-in-middle outcome in the open interval `(k, k+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionBin {
    /// Pinned at a notch `k` steps from the target (0 = correct).
    AtStep(i32),
    /// Stranded between notches `k` and `k + 1`.
    Between(i32),
}

impl PositionBin {
    /// The seven bins plotted by Fig. 4, left to right:
    /// (−2,−1), −1, (−1,0), 0, (0,+1), +1, (+1,+2).
    pub const FIG4: [PositionBin; 7] = [
        PositionBin::Between(-2),
        PositionBin::AtStep(-1),
        PositionBin::Between(-1),
        PositionBin::AtStep(0),
        PositionBin::Between(0),
        PositionBin::AtStep(1),
        PositionBin::Between(1),
    ];

    /// Human-readable label matching the paper's x-axis.
    pub fn label(&self) -> String {
        match self {
            PositionBin::AtStep(k) => format!("{k:+}"),
            PositionBin::Between(k) => format!("({:+},{:+})", k, k + 1),
        }
    }

    /// Classifies a shift outcome into its bin.
    pub fn of(outcome: &ShiftOutcome) -> PositionBin {
        match outcome {
            ShiftOutcome::Pinned { offset } => PositionBin::AtStep(*offset),
            ShiftOutcome::StopInMiddle { lower, .. } => PositionBin::Between(*lower),
        }
    }
}

/// An estimated probability for one bin: the Monte-Carlo frequency plus
/// the analytic (fit-based) probability used for unobserved tails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinEstimate {
    /// Bin identity.
    pub bin: PositionBin,
    /// Number of Monte-Carlo samples that landed in the bin.
    pub samples: u64,
    /// Empirical frequency (samples / trials).
    pub empirical: f64,
    /// Analytic probability from the Gaussian displacement fit — the
    /// "fitting curve" extrapolation the paper applies to its own MC.
    pub analytic: f64,
}

impl BinEstimate {
    /// The best available estimate: empirical when the bin was observed
    /// often enough to trust (≥ 10 samples), analytic otherwise.
    pub fn probability(&self) -> f64 {
        if self.samples >= 10 {
            self.empirical
        } else {
            self.analytic
        }
    }

    /// 95 % Wilson confidence interval on the empirical frequency,
    /// given the run's trial count.
    pub fn confidence_interval(&self, trials: u64) -> (f64, f64) {
        rtm_util::stats::wilson_interval(self.samples, trials, 1.96)
    }

    /// True when the analytic tail value is statistically consistent
    /// with the Monte-Carlo observation (inside the 95 % interval).
    pub fn analytic_consistent(&self, trials: u64) -> bool {
        let (lo, hi) = self.confidence_interval(trials);
        self.analytic >= lo && self.analytic <= hi
    }
}

/// Result of a Fig. 4 Monte-Carlo run for one shift distance.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionPdf {
    /// Shift distance simulated.
    pub distance: u32,
    /// Number of trials.
    pub trials: u64,
    /// Estimates for the seven Fig. 4 bins, in display order.
    pub bins: Vec<BinEstimate>,
    /// The Gaussian displacement fit backing the analytic column.
    pub fit: GaussianFit,
    /// Welford statistics of the sampled continuous displacement
    /// errors — the Monte-Carlo counterpart of [`Self::fit`], merged
    /// across chunks in chunk order so it is thread-count invariant.
    pub error_stats: OnlineStats,
}

impl PositionPdf {
    /// Probability of a fully correct shift.
    pub fn success_probability(&self) -> f64 {
        self.bins
            .iter()
            .find(|b| b.bin == PositionBin::AtStep(0))
            .map(|b| b.probability())
            .unwrap_or(0.0)
    }

    /// Total stop-in-middle probability (all `Between` bins).
    pub fn stop_in_middle_probability(&self) -> f64 {
        self.bins
            .iter()
            .filter(|b| matches!(b.bin, PositionBin::Between(_)))
            .map(|b| b.probability())
            .sum()
    }

    /// Total out-of-step probability (all `AtStep(k != 0)` bins).
    pub fn out_of_step_probability(&self) -> f64 {
        self.bins
            .iter()
            .filter(|b| matches!(b.bin, PositionBin::AtStep(k) if k != 0))
            .map(|b| b.probability())
            .sum()
    }
}

/// Analytic probability of a bin under the displacement Gaussian with
/// the capture-window settle rule.
///
/// Delegates to the analytic engine's two-sided stable band: the old
/// survival-function difference lost all precision for bins far below
/// the mean (both sf values round to 1.0), reporting ~0 where the true
/// mass is merely astronomically small.
fn analytic_bin_probability(noise: &NoiseModel, fit: &GaussianFit, bin: PositionBin) -> f64 {
    let w = noise.capture_half_window;
    let band = |a: f64, b: f64| crate::analytic::gaussian_band(fit.mu, fit.sigma, a, b);
    match bin {
        PositionBin::AtStep(k) => band(k as f64 - w, k as f64 + w),
        PositionBin::Between(k) => band(k as f64 + w, k as f64 + 1.0 - w),
    }
}

/// Per-chunk accumulator: bin tallies plus Welford displacement stats.
struct ChunkAccum {
    counts: HashMap<PositionBin, u64>,
    errors: OnlineStats,
}

/// Simulates one chunk of raw shifts on an independent RNG stream.
fn simulate_chunk(
    noise: &NoiseModel,
    distance: u32,
    len: u64,
    seed: u64,
    progress: &rtm_obs::timer::Progress,
) -> ChunkAccum {
    let mut rng = SmallRng64::new(seed);
    let mut counts = HashMap::new();
    let mut errors = OnlineStats::new();
    for _ in 0..len {
        let e = noise.sample_error(distance, &mut rng);
        let outcome = noise.settle(e);
        *counts.entry(PositionBin::of(&outcome)).or_insert(0u64) += 1;
        errors.push(e);
        progress.tick(1);
    }
    ChunkAccum { counts, errors }
}

/// Runs the Fig. 4 Monte-Carlo for one shift distance.
///
/// `trials` raw (stage-1 only) shifts are simulated; the Gaussian fit is
/// taken over the continuous displacement errors so the analytic column
/// extends below the sampling floor.
///
/// Work is split into [`MC_CHUNK_TRIALS`]-sized chunks executed on the
/// process-wide `rtm_par` pool; see [`position_pdf_with_threads`] for
/// the determinism contract.
///
/// # Panics
///
/// Panics if `distance == 0` or `trials == 0`.
pub fn position_pdf(params: &DeviceParams, distance: u32, trials: u64, seed: u64) -> PositionPdf {
    position_pdf_with_threads(params, distance, trials, seed, rtm_par::threads())
}

/// [`position_pdf`] with an explicit worker count.
///
/// The output is **bit-identical for every `threads` value**: the
/// chunk layout depends only on `trials`, each chunk's RNG stream is
/// seeded from `(seed, chunk_index)`, and per-chunk bin counts and
/// Welford stats are merged in chunk-index order after the pool joins.
///
/// # Panics
///
/// Panics if `distance == 0` or `trials == 0`.
pub fn position_pdf_with_threads(
    params: &DeviceParams,
    distance: u32,
    trials: u64,
    seed: u64,
    threads: usize,
) -> PositionPdf {
    assert!(distance > 0, "distance must be positive");
    assert!(trials > 0, "at least one trial required");
    let noise = NoiseModel::from_params(params);

    let progress =
        rtm_obs::timer::Progress::new(format!("montecarlo d={distance}"), trials, "trials");
    let plan = rtm_par::chunks(trials, MC_CHUNK_TRIALS);
    let accums = rtm_par::parallel_map_with(threads, plan.len(), |i| {
        let chunk = plan[i];
        simulate_chunk(
            &noise,
            distance,
            chunk.len,
            rtm_util::rng::derive_seed(seed, chunk.index as u64),
            &progress,
        )
    });
    progress.finish();

    // Merge in chunk-index order: counter addition commutes exactly,
    // but the parallel-Welford merge is float-order-sensitive, so the
    // fixed ordering is what keeps the stats thread-count invariant.
    let mut counts: HashMap<PositionBin, u64> = HashMap::new();
    let mut errors = OnlineStats::new();
    for a in accums {
        for (bin, n) in a.counts {
            *counts.entry(bin).or_insert(0) += n;
        }
        errors.merge(&a.errors);
    }

    let reg = rtm_obs::global().registry();
    if reg.enabled() {
        reg.counter_add("mc.trials", trials);
        for (bin, n) in &counts {
            match bin {
                PositionBin::AtStep(0) => reg.counter_add("mc.on_target", *n),
                PositionBin::AtStep(_) => reg.counter_add("mc.out_of_step", *n),
                PositionBin::Between(_) => reg.counter_add("mc.stop_in_middle", *n),
            }
        }
    }
    let fit = GaussianFit {
        mu: noise.mean_for(distance),
        sigma: noise.sigma_for(distance),
    };
    let bins = PositionBin::FIG4
        .iter()
        .map(|&bin| {
            let samples = counts.get(&bin).copied().unwrap_or(0);
            BinEstimate {
                bin,
                samples,
                empirical: samples as f64 / trials as f64,
                analytic: analytic_bin_probability(&noise, &fit, bin),
            }
        })
        .collect();
    PositionPdf {
        distance,
        trials,
        bins,
        fit,
        error_stats: errors,
    }
}

/// The three Fig. 4 panels (1-, 4- and 7-step shifts) from `engine`.
///
/// For [`Engine::Analytic`] the panels come from the closed form
/// (trials and seed are irrelevant and the returned PDFs carry
/// `trials == 0`); for Monte-Carlo each panel runs `trials` simulations
/// on a distance-derived seed.
pub fn figure4(params: &DeviceParams, trials: u64, seed: u64, engine: Engine) -> [PositionPdf; 3] {
    let panel = |d: u32| {
        engine.position_pdf(
            params,
            d,
            trials,
            rtm_util::rng::derive_seed(seed, d as u64),
        )
    };
    [panel(1), panel(4), panel(7)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pdf(distance: u32) -> PositionPdf {
        position_pdf(&DeviceParams::table1(), distance, 300_000, 42)
    }

    #[test]
    fn success_dominates() {
        let pdf = quick_pdf(1);
        assert!(pdf.success_probability() > 0.999);
    }

    #[test]
    fn bins_sum_to_one_within_tolerance() {
        let pdf = quick_pdf(4);
        let total: f64 = pdf.bins.iter().map(|b| b.empirical).sum();
        // Everything lands in [-2, +2] at these noise levels.
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn longer_shifts_err_more() {
        let p1 = quick_pdf(1);
        let p7 = quick_pdf(7);
        let err = |p: &PositionPdf| p.stop_in_middle_probability() + p.out_of_step_probability();
        assert!(err(&p7) > err(&p1));
    }

    #[test]
    fn analytic_matches_empirical_where_observable() {
        let pdf = position_pdf(&DeviceParams::table1(), 7, 2_000_000, 7);
        for b in &pdf.bins {
            if b.samples >= 100 {
                let ratio = b.analytic / b.empirical;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "bin {}: analytic {:.3e} vs empirical {:.3e}",
                    b.bin.label(),
                    b.analytic,
                    b.empirical
                );
            }
        }
    }

    #[test]
    fn confidence_intervals_bracket_well_observed_bins() {
        let pdf = position_pdf(&DeviceParams::table1(), 7, 1_000_000, 5);
        for b in &pdf.bins {
            if b.samples >= 50 {
                let (lo, hi) = b.confidence_interval(pdf.trials);
                assert!(lo <= b.empirical && b.empirical <= hi);
                assert!(
                    b.analytic_consistent(pdf.trials),
                    "bin {}: analytic {:.3e} outside [{:.3e}, {:.3e}]",
                    b.bin.label(),
                    b.analytic,
                    lo,
                    hi
                );
            }
        }
    }

    #[test]
    fn tail_bins_get_analytic_estimates() {
        let pdf = quick_pdf(1);
        // (-2,-1) is unobservable at 3e5 trials but must have a finite
        // analytic probability.
        let far = pdf
            .bins
            .iter()
            .find(|b| b.bin == PositionBin::Between(-2))
            .unwrap();
        assert_eq!(far.samples, 0);
        assert!(far.analytic >= 0.0 && far.analytic < 1e-10);
        assert_eq!(far.probability(), far.analytic);
    }

    #[test]
    fn overshoot_middle_exceeds_undershoot_middle() {
        // Fig. 4 asymmetry: drive above threshold biases to the right.
        let pdf = position_pdf(&DeviceParams::table1(), 7, 2_000_000, 11);
        let get = |bin: PositionBin| {
            pdf.bins
                .iter()
                .find(|b| b.bin == bin)
                .unwrap()
                .probability()
        };
        assert!(get(PositionBin::Between(0)) > get(PositionBin::Between(-1)));
    }

    #[test]
    fn figure4_produces_three_panels() {
        let panels = figure4(&DeviceParams::table1(), 50_000, 3, Engine::MonteCarlo);
        assert_eq!(panels[0].distance, 1);
        assert_eq!(panels[1].distance, 4);
        assert_eq!(panels[2].distance, 7);
        for p in &panels {
            assert_eq!(p.bins.len(), 7);
        }
    }

    #[test]
    fn labels_match_paper_axis() {
        assert_eq!(PositionBin::AtStep(0).label(), "+0");
        assert_eq!(PositionBin::AtStep(1).label(), "+1");
        assert_eq!(PositionBin::Between(-1).label(), "(-1,+0)");
        assert_eq!(PositionBin::Between(1).label(), "(+1,+2)");
    }

    #[test]
    #[should_panic]
    fn zero_trials_rejected() {
        let _ = position_pdf(&DeviceParams::table1(), 1, 0, 1);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let params = DeviceParams::table1();
        // More trials than one chunk so several chunks actually run.
        let trials = 3 * MC_CHUNK_TRIALS + 1234;
        let one = position_pdf_with_threads(&params, 4, trials, 42, 1);
        let two = position_pdf_with_threads(&params, 4, trials, 42, 2);
        let eight = position_pdf_with_threads(&params, 4, trials, 42, 8);
        // PartialEq on PositionPdf is bit-exact over every f64 inside.
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn error_stats_match_the_analytic_fit() {
        let pdf = position_pdf(&DeviceParams::table1(), 7, 500_000, 9);
        assert_eq!(pdf.error_stats.count(), pdf.trials);
        assert!((pdf.error_stats.mean() - pdf.fit.mu).abs() < 5e-4);
        assert!((pdf.error_stats.std_dev() - pdf.fit.sigma).abs() < 5e-4);
    }

    #[test]
    fn single_chunk_runs_still_fill_error_stats() {
        let pdf = position_pdf(&DeviceParams::table1(), 1, 100, 5);
        assert_eq!(pdf.error_stats.count(), 100);
        let total: u64 = pdf.bins.iter().map(|b| b.samples).sum();
        assert!(total <= 100);
    }
}
