//! Pluggable shift fault models.
//!
//! A fault model answers one question: *what happened physically when a
//! stripe was commanded to shift `d` steps?* Implementations:
//!
//! * [`IdealFaultModel`] — every shift succeeds (functional modelling,
//!   p-ECC layout tests);
//! * [`CalibratedFaultModel`] — draws out-of-step errors from the
//!   paper's Table 2 calibration ([`rtm_model::OutOfStepRates`]),
//!   assuming STS so stop-in-middle never occurs;
//! * [`GaussianFaultModel`] — the first-principles noise model: draws
//!   the continuous displacement error, settles it, applies STS
//!   (through [`GaussianSampler`], which skips the transcendental
//!   transform whenever the draw provably lands on target);
//! * [`AliasFaultModel`] — distribution-equivalent to the Gaussian
//!   model but one RNG draw + two array reads per shift via the
//!   precomputed alias tables of [`rtm_model::alias`];
//! * [`PinningFaultModel`] — position-dependent sticky defect pinning
//!   in the style of Roxy/Jones (arXiv 2203.08303): seed-placed pin
//!   sites activate as the walls traverse them and hold the track back
//!   one step per shift until released, producing bursty, under-shift
//!   dominated errors; [`PinningFaultModel::effective_rates`] exposes
//!   the stationary rates so the analytic pipeline keeps working;
//! * [`ScriptedFaultModel`] — replays a fixed outcome sequence, for
//!   deterministic tests of detection/correction logic.
//!
//! [`FaultModelChoice`] names the user-selectable fault processes (the
//! `--fault-model` axis of the scheme × fault-model matrix) and builds
//! the matching [`SelectedFaultModel`] dispatcher; its `engine` choice
//! picks the Gaussian or the alias model by [`rtm_model::Engine`].

use rtm_model::analytic::Engine;
use rtm_model::params::DeviceParams;
use rtm_model::rates::OutOfStepRates;
use rtm_model::shift::{GaussianSampler, NoiseModel, ShiftOutcome};
use rtm_util::rng::SmallRng64;

/// Decides the physical outcome of each commanded shift.
pub trait FaultModel {
    /// Samples the outcome of a shift of `distance` steps
    /// (`distance >= 1`; direction does not affect the error physics).
    fn sample(&mut self, distance: u32) -> ShiftOutcome;
}

/// All shifts succeed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealFaultModel;

impl FaultModel for IdealFaultModel {
    fn sample(&mut self, _distance: u32) -> ShiftOutcome {
        ShiftOutcome::Pinned { offset: 0 }
    }
}

/// Draws out-of-step errors at the calibrated Table 2 rates.
///
/// STS is assumed active, so every outcome is `Pinned`; the ± direction
/// follows the calibration's over-shift fraction.
#[derive(Debug, Clone)]
pub struct CalibratedFaultModel {
    rates: OutOfStepRates,
    rng: SmallRng64,
    injected: u64,
    sampled: u64,
}

impl CalibratedFaultModel {
    /// Creates a model over the given rate table.
    pub fn new(rates: OutOfStepRates, seed: u64) -> Self {
        Self {
            rates,
            rng: SmallRng64::new(seed),
            injected: 0,
            sampled: 0,
        }
    }

    /// Model with the paper's Table 2 rates.
    pub fn paper(seed: u64) -> Self {
        Self::new(OutOfStepRates::paper_calibration(), seed)
    }

    /// Number of faulty outcomes produced so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Number of outcomes sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// The underlying rate table.
    pub fn rates(&self) -> &OutOfStepRates {
        &self.rates
    }
}

impl FaultModel for CalibratedFaultModel {
    fn sample(&mut self, distance: u32) -> ShiftOutcome {
        self.sampled += 1;
        let u = self.rng.next_f64();
        // Walk the k ladder; k=1 dominates so this loop almost always
        // exits on its first comparison.
        let mut acc = 0.0;
        for k in 1..=3u32 {
            let rate = self.rates.rate(distance, k);
            acc += rate;
            if u < acc {
                self.injected += 1;
                let plus = self.rng.chance(self.rates.plus_fraction());
                let signed = if plus { k as i32 } else { -(k as i32) };
                return ShiftOutcome::Pinned { offset: signed };
            }
        }
        ShiftOutcome::Pinned { offset: 0 }
    }
}

/// Draws shift outcomes from the first-principles displacement noise
/// model: sample the continuous error, settle it against the capture
/// window, apply the STS stage-2 push. Every outcome is `Pinned`.
///
/// This is the reference stochastic path: four uniforms per shift, and
/// the Box–Muller transform only when [`GaussianSampler`]'s early exit
/// cannot rule out an error (about one shift in 13 at distance 3, one
/// in 5 at distance 7). [`AliasFaultModel`] samples the identical
/// distribution from one draw.
#[derive(Debug, Clone)]
pub struct GaussianFaultModel {
    sampler: GaussianSampler,
    rng: SmallRng64,
    injected: u64,
    sampled: u64,
}

impl GaussianFaultModel {
    /// Model over the noise model derived from `params`.
    pub fn new(params: &DeviceParams, seed: u64) -> Self {
        Self {
            sampler: GaussianSampler::new(NoiseModel::from_params(params)),
            rng: SmallRng64::new(seed),
            injected: 0,
            sampled: 0,
        }
    }

    /// Number of faulty outcomes produced so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Number of outcomes sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }
}

impl FaultModel for GaussianFaultModel {
    fn sample(&mut self, distance: u32) -> ShiftOutcome {
        self.sampled += 1;
        let out = self.sampler.sample_sts(distance, &mut self.rng);
        if !out.is_success() {
            self.injected += 1;
        }
        out
    }
}

/// Draws STS shift outcomes from precomputed Walker alias tables —
/// distribution-equivalent to [`GaussianFaultModel`] at one RNG draw
/// and two array reads per shift, where the Gaussian model draws four
/// uniforms and sometimes transforms them.
#[derive(Debug, Clone)]
pub struct AliasFaultModel {
    sampler: rtm_model::OutcomeAliasSampler,
    rng: SmallRng64,
    injected: u64,
    sampled: u64,
}

impl AliasFaultModel {
    /// Model with tables for distances
    /// `1..=rtm_model::rates::MAX_TABULATED_DISTANCE`.
    pub fn new(params: &DeviceParams, seed: u64) -> Self {
        Self {
            sampler: rtm_model::OutcomeAliasSampler::from_params(
                params,
                rtm_model::rates::MAX_TABULATED_DISTANCE,
            ),
            rng: SmallRng64::new(seed),
            injected: 0,
            sampled: 0,
        }
    }

    /// Number of faulty outcomes produced so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Number of outcomes sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }
}

impl FaultModel for AliasFaultModel {
    fn sample(&mut self, distance: u32) -> ShiftOutcome {
        self.sampled += 1;
        let out = self.sampler.sample_sts(distance, &mut self.rng);
        if !out.is_success() {
            self.injected += 1;
        }
        out
    }
}

/// Position-dependent sticky pinning faults (Roxy/Jones-style).
///
/// Fabrication defects (edge roughness, notches) create *pin sites* at
/// fixed positions along a track. When a shift drags the domain walls
/// across an intact pin site, the site may *activate*: one wall snags
/// and the track advances one step short (`Pinned { offset: −1 }`).
/// The site is sticky — every subsequent shift under-shoots by one
/// more step until the drive current happens to depin it (release),
/// after which shifts succeed again. The result is exactly the error
/// process the stream codecs' under-shift hypothesis models: bursts of
/// repeated single under-shifts, minus-signed, at positions fixed per
/// track rather than i.i.d. per shift.
///
/// Everything is deterministic in the seed: site positions are placed
/// by the construction-time RNG and the activate/release draws come
/// from the same stream, so equal seeds replay equal fault sequences.
#[derive(Debug, Clone)]
pub struct PinningFaultModel {
    /// Sorted pin-site positions in `[0, track_len)`.
    sites: Vec<u32>,
    track_len: u32,
    /// Activation probability per pin site traversed while free.
    p_activate: f64,
    /// Release probability per shift while stuck.
    p_release: f64,
    /// Current wall position modulo `track_len`.
    position: u32,
    stuck: bool,
    rng: SmallRng64,
    injected: u64,
    sampled: u64,
}

impl PinningFaultModel {
    /// A model with `site_count` pin sites placed by `seed` on a
    /// `track_len`-domain track.
    pub fn new(
        track_len: u32,
        site_count: usize,
        p_activate: f64,
        p_release: f64,
        seed: u64,
    ) -> Self {
        assert!(track_len > 0, "track must have domains");
        assert!(
            (site_count as u32) <= track_len,
            "at most one site per domain"
        );
        assert!((0.0..=1.0).contains(&p_activate), "probability in [0,1]");
        assert!(p_release > 0.0 && p_release <= 1.0, "release in (0,1]");
        let mut rng = SmallRng64::new(seed);
        // Seed-placed sites: draw without replacement.
        let mut sites = Vec::with_capacity(site_count);
        while sites.len() < site_count {
            let s = rng.next_below(track_len as u64) as u32;
            if !sites.contains(&s) {
                sites.push(s);
            }
        }
        sites.sort_unstable();
        Self {
            sites,
            track_len,
            p_activate,
            p_release,
            position: 0,
            stuck: false,
            rng,
            injected: 0,
            sampled: 0,
        }
    }

    /// Defaults calibrated so the stationary any-error rate at the
    /// longest paper shift distance (7 steps) matches the Table 2
    /// column (~1.1e-3): 4 sites on a 64-domain track, activation
    /// 8.5e-4 per traversal, release 0.5 per shift.
    pub fn paper_like(seed: u64) -> Self {
        Self::new(64, 4, 8.5e-4, 0.5, seed)
    }

    /// Number of faulty outcomes produced so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Number of outcomes sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Pin-site positions (sorted).
    pub fn sites(&self) -> &[u32] {
        &self.sites
    }

    /// Number of pin sites in `[position, position + distance)`,
    /// wrapping around the track.
    fn sites_traversed(&self, distance: u32) -> u32 {
        let full_laps = distance / self.track_len;
        let rest = distance % self.track_len;
        let start = self.position;
        let end = (self.position + rest) % self.track_len;
        let in_arc = |s: u32| -> bool {
            if start <= end {
                s >= start && s < end
            } else {
                s >= start || s < end
            }
        };
        let partial = if rest == 0 {
            0
        } else {
            self.sites.iter().filter(|&&s| in_arc(s)).count() as u32
        };
        full_laps * self.sites.len() as u32 + partial
    }

    /// The stationary per-shift error rates this model converges to,
    /// as a rate table the analytic reliability pipeline can consume.
    ///
    /// Treating shifts of a fixed `distance` as a two-state Markov
    /// chain (free/stuck): a free shift errs (and sticks) with the
    /// activation probability `a(d) = 1 − (1 − p_act)^E[sites crossed]`,
    /// and every stuck shift errs by −1 then releases with `p_rel`, so
    /// the stationary error rate is `π_free·a + π_stuck` with
    /// `π_stuck = a / (a + p_rel)`. All errors are single under-steps,
    /// so the k=2 column is zero and the plus fraction is zero.
    pub fn effective_rates(&self) -> OutOfStepRates {
        let density = self.sites.len() as f64 / self.track_len as f64;
        let mut k1 = Vec::new();
        for d in 1..=crate::fault::MAX_RATE_DISTANCE {
            let crossed = density * d as f64;
            let a = 1.0 - (1.0 - self.p_activate).powf(crossed);
            let pi_stuck = a / (a + self.p_release);
            let pi_free = 1.0 - pi_stuck;
            k1.push(pi_free * a + pi_stuck);
        }
        let k2 = vec![0.0; k1.len()];
        OutOfStepRates::from_columns(k1, k2, 0.0)
    }
}

/// Distances tabulated by [`PinningFaultModel::effective_rates`]
/// (matches the paper's Table 2 span).
const MAX_RATE_DISTANCE: u32 = rtm_model::rates::MAX_TABULATED_DISTANCE;

impl FaultModel for PinningFaultModel {
    fn sample(&mut self, distance: u32) -> ShiftOutcome {
        self.sampled += 1;
        let outcome = if self.stuck {
            // Snagged: this shift loses a step, then maybe depins.
            self.injected += 1;
            if self.rng.chance(self.p_release) {
                self.stuck = false;
            }
            ShiftOutcome::Pinned { offset: -1 }
        } else {
            let crossed = self.sites_traversed(distance);
            let activated = (0..crossed).any(|_| self.rng.chance(self.p_activate));
            if activated {
                self.stuck = true;
                self.injected += 1;
                ShiftOutcome::Pinned { offset: -1 }
            } else {
                ShiftOutcome::Pinned { offset: 0 }
            }
        };
        self.position = (self.position + distance % self.track_len) % self.track_len;
        outcome
    }
}

/// The fault-process axis of the scheme × fault-model matrix: which
/// error physics drives a simulation, independent of the protection
/// scheme checking for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModelChoice {
    /// Engine-prescribed displacement sampling — Gaussian reference
    /// path under Monte-Carlo, alias fast path under analytic. The
    /// default, and the paper's own noise model.
    #[default]
    Engine,
    /// Rate-table sampling at the paper's calibrated Table 2 rates.
    Calibrated,
    /// Sticky pinning-site faults ([`PinningFaultModel`]): bursty,
    /// minus-signed, position-dependent.
    Pinning,
}

impl FaultModelChoice {
    /// Every selectable fault model, in display order.
    pub const ALL: [FaultModelChoice; 3] = [
        FaultModelChoice::Engine,
        FaultModelChoice::Calibrated,
        FaultModelChoice::Pinning,
    ];

    /// Canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModelChoice::Engine => "engine",
            FaultModelChoice::Calibrated => "calibrated",
            FaultModelChoice::Pinning => "pinning",
        }
    }

    /// Parses a canonical CLI name ([`FaultModelChoice::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "engine" => Some(FaultModelChoice::Engine),
            "calibrated" => Some(FaultModelChoice::Calibrated),
            "pinning" => Some(FaultModelChoice::Pinning),
            _ => None,
        }
    }

    /// Builds the sampling fault model this choice prescribes; the
    /// engine choice samples the Gaussian reference path under
    /// Monte-Carlo and the alias fast path under analytic.
    pub fn build(&self, engine: Engine, params: &DeviceParams, seed: u64) -> SelectedFaultModel {
        match (self, engine) {
            (FaultModelChoice::Engine, Engine::MonteCarlo) => {
                SelectedFaultModel::Gaussian(GaussianFaultModel::new(params, seed))
            }
            (FaultModelChoice::Engine, Engine::Analytic) => {
                SelectedFaultModel::Alias(AliasFaultModel::new(params, seed))
            }
            (FaultModelChoice::Calibrated, _) => {
                SelectedFaultModel::Calibrated(CalibratedFaultModel::paper(seed))
            }
            (FaultModelChoice::Pinning, _) => {
                SelectedFaultModel::Pinning(PinningFaultModel::paper_like(seed))
            }
        }
    }

    /// The rate table the analytic reliability path should use for
    /// this fault process: the paper calibration for the displacement
    /// processes (which it was fitted to), the stationary Markov rates
    /// for pinning.
    pub fn analytic_rates(&self) -> OutOfStepRates {
        match self {
            FaultModelChoice::Engine | FaultModelChoice::Calibrated => {
                OutOfStepRates::paper_calibration()
            }
            FaultModelChoice::Pinning => PinningFaultModel::paper_like(0).effective_rates(),
        }
    }
}

impl std::fmt::Display for FaultModelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault model built from a [`FaultModelChoice`] — the runtime
/// dispatcher the memory hierarchy samples through.
#[derive(Debug, Clone)]
pub enum SelectedFaultModel {
    /// Direct Gaussian sampling: the engine choice under Monte-Carlo
    /// (validation oracle).
    Gaussian(GaussianFaultModel),
    /// Alias-table sampling: the engine choice under analytic (fast
    /// path).
    Alias(AliasFaultModel),
    /// Calibrated Table 2 rate sampling.
    Calibrated(CalibratedFaultModel),
    /// Sticky pinning-site sampling.
    Pinning(PinningFaultModel),
}

impl FaultModel for SelectedFaultModel {
    fn sample(&mut self, distance: u32) -> ShiftOutcome {
        match self {
            Self::Gaussian(m) => m.sample(distance),
            Self::Alias(m) => m.sample(distance),
            Self::Calibrated(m) => m.sample(distance),
            Self::Pinning(m) => m.sample(distance),
        }
    }
}

/// Replays a scripted sequence of outcomes, then succeeds forever.
#[derive(Debug, Clone, Default)]
pub struct ScriptedFaultModel {
    script: std::collections::VecDeque<ShiftOutcome>,
}

impl ScriptedFaultModel {
    /// Creates a model that replays `outcomes` in order.
    pub fn new<I: IntoIterator<Item = ShiftOutcome>>(outcomes: I) -> Self {
        Self {
            script: outcomes.into_iter().collect(),
        }
    }

    /// Remaining scripted outcomes.
    pub fn remaining(&self) -> usize {
        self.script.len()
    }
}

impl FaultModel for ScriptedFaultModel {
    fn sample(&mut self, _distance: u32) -> ShiftOutcome {
        self.script
            .pop_front()
            .unwrap_or(ShiftOutcome::Pinned { offset: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_never_errs() {
        let mut m = IdealFaultModel;
        for d in 1..=7 {
            assert!(m.sample(d).is_success());
        }
    }

    #[test]
    fn scripted_replays_then_succeeds() {
        let mut m = ScriptedFaultModel::new([
            ShiftOutcome::Pinned { offset: 1 },
            ShiftOutcome::StopInMiddle {
                lower: 0,
                frac: 0.5,
            },
        ]);
        assert_eq!(m.remaining(), 2);
        assert_eq!(m.sample(3), ShiftOutcome::Pinned { offset: 1 });
        assert!(matches!(m.sample(3), ShiftOutcome::StopInMiddle { .. }));
        assert!(m.sample(3).is_success());
        assert_eq!(m.remaining(), 0);
    }

    #[test]
    fn calibrated_rate_tracks_table() {
        let mut m = CalibratedFaultModel::paper(77);
        let trials = 2_000_000u64;
        let mut errors = 0u64;
        for _ in 0..trials {
            if !m.sample(7).is_success() {
                errors += 1;
            }
        }
        let rate = errors as f64 / trials as f64;
        let expect = OutOfStepRates::paper_calibration().any_error_rate(7);
        assert!(
            (rate / expect - 1.0).abs() < 0.25,
            "rate {rate:.3e} vs expected {expect:.3e}"
        );
        assert_eq!(m.sampled(), trials);
        assert_eq!(m.injected(), errors);
    }

    #[test]
    fn calibrated_short_shifts_much_safer() {
        let mut m = CalibratedFaultModel::paper(5);
        let trials = 500_000;
        let errs_1: u64 = (0..trials).filter(|_| !m.sample(1).is_success()).count() as u64;
        let errs_7: u64 = (0..trials).filter(|_| !m.sample(7).is_success()).count() as u64;
        assert!(errs_7 > errs_1 * 3, "1-step {errs_1} vs 7-step {errs_7}");
    }

    #[test]
    fn gaussian_and_alias_models_agree_in_distribution() {
        let params = DeviceParams::table1();
        let mut gauss = GaussianFaultModel::new(&params, 71);
        let mut alias = AliasFaultModel::new(&params, 72);
        let trials = 2_000_000u64;
        let mut g_err = 0u64;
        let mut a_err = 0u64;
        for _ in 0..trials {
            if !gauss.sample(7).is_success() {
                g_err += 1;
            }
            if !alias.sample(7).is_success() {
                a_err += 1;
            }
        }
        assert_eq!(gauss.sampled(), trials);
        assert_eq!(alias.sampled(), trials);
        assert_eq!(gauss.injected(), g_err);
        assert_eq!(alias.injected(), a_err);
        // Same underlying distribution: rates within two pooled
        // binomial sigmas of each other.
        let p = (g_err + a_err) as f64 / (2 * trials) as f64;
        let sigma = (2.0 * p * (1.0 - p) / trials as f64).sqrt();
        let diff = (g_err as f64 - a_err as f64).abs() / trials as f64;
        assert!(
            diff < 3.0 * sigma,
            "gaussian {g_err} vs alias {a_err} (3sigma {:.1})",
            3.0 * sigma * trials as f64
        );
    }

    #[test]
    fn fault_model_names_round_trip() {
        for f in FaultModelChoice::ALL {
            assert_eq!(FaultModelChoice::parse(f.name()), Some(f));
        }
        // `--engine` picks the engine model's sampler; no name may
        // pretend to pick it instead.
        assert_eq!(FaultModelChoice::parse("gaussian"), None);
        assert_eq!(FaultModelChoice::parse("alias"), None);
    }

    #[test]
    fn engine_model_dispatches_by_engine() {
        let params = DeviceParams::table1();
        let build = |engine| FaultModelChoice::Engine.build(engine, &params, 4);
        let mut mc = build(Engine::MonteCarlo);
        let mut an = build(Engine::Analytic);
        for _ in 0..1000 {
            assert!(mc.sample(3).step_offset().is_some());
            assert!(an.sample(3).step_offset().is_some());
        }
        match (mc, an) {
            (SelectedFaultModel::Gaussian(g), SelectedFaultModel::Alias(a)) => {
                assert_eq!(g.sampled(), 1000);
                assert_eq!(a.sampled(), 1000);
            }
            other => panic!("engine dispatch picked {other:?}"),
        }
    }

    #[test]
    fn pinning_is_deterministic_in_the_seed() {
        let mut a = PinningFaultModel::paper_like(42);
        let mut b = PinningFaultModel::paper_like(42);
        assert_eq!(a.sites(), b.sites());
        for i in 0..200_000u32 {
            let d = 1 + i % 7;
            assert_eq!(a.sample(d), b.sample(d), "diverged at draw {i}");
        }
        assert_eq!(a.injected(), b.injected());
        // A different seed places different sites.
        let c = PinningFaultModel::paper_like(43);
        assert_ne!(a.sites(), c.sites());
    }

    #[test]
    fn scripted_replay_of_a_pinning_trace_is_faithful() {
        // Record a pin/release sequence, load it into the scripted
        // model, and check a same-seed pinning model reproduces it
        // outcome for outcome — the replay contract the deterministic
        // fault-injection tests rely on.
        let distances: Vec<u32> = (0..50_000u32).map(|i| 1 + i % 7).collect();
        let mut live = PinningFaultModel::paper_like(2015);
        let trace: Vec<ShiftOutcome> = distances.iter().map(|&d| live.sample(d)).collect();
        assert!(live.injected() > 0, "trace must contain pin events");
        let mut replay = ScriptedFaultModel::new(trace);
        let mut fresh = PinningFaultModel::paper_like(2015);
        for (i, &d) in distances.iter().enumerate() {
            assert_eq!(fresh.sample(d), replay.sample(d), "diverged at draw {i}");
        }
        assert_eq!(replay.remaining(), 0);
        assert_eq!(fresh.injected(), live.injected());
    }

    #[test]
    fn pinning_errors_are_minus_signed_and_bursty() {
        let mut m = PinningFaultModel::paper_like(7);
        let mut burst = 0u32;
        let mut bursts = Vec::new();
        for _ in 0..2_000_000 {
            match m.sample(7) {
                ShiftOutcome::Pinned { offset: -1 } => burst += 1,
                ShiftOutcome::Pinned { offset: 0 } => {
                    if burst > 0 {
                        bursts.push(burst);
                    }
                    burst = 0;
                }
                other => panic!("pinning produced {other:?}"),
            }
        }
        assert!(!bursts.is_empty(), "no faults in 2M shifts");
        // Sticky release at 0.5 → mean burst length 2, so multi-error
        // bursts must show up — the signature i.i.d. models lack.
        assert!(
            bursts.iter().any(|&b| b >= 2),
            "no sticky bursts: {bursts:?}"
        );
    }

    #[test]
    fn pinning_effective_rates_match_simulation() {
        let mut m = PinningFaultModel::paper_like(11);
        let trials = 4_000_000u64;
        let mut errors = 0u64;
        for _ in 0..trials {
            if !m.sample(7).is_success() {
                errors += 1;
            }
        }
        let rate = errors as f64 / trials as f64;
        let expect = m.effective_rates().any_error_rate(7);
        assert!(
            (rate / expect - 1.0).abs() < 0.25,
            "rate {rate:.3e} vs stationary {expect:.3e}"
        );
        // Calibration target: same order as the paper's Table 2 column.
        let paper = OutOfStepRates::paper_calibration().any_error_rate(7);
        assert!(
            (expect / paper) > 0.3 && (expect / paper) < 3.0,
            "pinning rate {expect:.3e} not Table-2-like ({paper:.3e})"
        );
    }

    #[test]
    fn pinning_rates_are_all_under_shifts() {
        let rates = PinningFaultModel::paper_like(1).effective_rates();
        assert_eq!(rates.plus_fraction(), 0.0);
        assert!(rates.minus_rate(7, 1) > 0.0);
        assert_eq!(rates.rate(7, 2), 0.0);
    }

    #[test]
    fn calibrated_errors_are_mostly_positive() {
        let mut m = CalibratedFaultModel::paper(9);
        let (mut plus, mut minus) = (0u64, 0u64);
        for _ in 0..3_000_000 {
            match m.sample(7) {
                ShiftOutcome::Pinned { offset } if offset > 0 => plus += 1,
                ShiftOutcome::Pinned { offset } if offset < 0 => minus += 1,
                _ => {}
            }
        }
        assert!(plus > 5 * minus.max(1), "plus {plus} minus {minus}");
    }
}
