//! Device parameters for the in-plane racetrack stripe (the paper's
//! Table 1) and their statistical variation.
//!
//! Two variation sources are modelled, following the paper's Section 3.1:
//!
//! * **process variation** — fixed per etched feature (domain-wall
//!   width, pinning potential depth/width, flat-region width);
//! * **environmental variation** — fresh per shift operation (thermal
//!   noise on the effective drive, modelled as a perturbation of the
//!   wall velocity).
//!
//! Both enter the simulation only through their sigmas, which
//! [`crate::shift::NoiseModel`] folds into one Gaussian displacement
//! error per shift.

/// Mean values and standard deviations of the stripe device parameters.
///
/// Defaults are the paper's Table 1:
///
/// | parameter | mean | σ |
/// |---|---|---|
/// | domain-wall width Δ | 5 nm | 0.02·Δ̄ |
/// | pinning potential depth V | 1.2 J/dm³ | 0.02·V̄ |
/// | pinning potential width d | 45 nm | 0.05·d̄ |
/// | flat region width L | 150 nm | 0.05·d̄ |
/// | drive current density J | 1.24 A/µm² | chosen as 2·J₀ |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Mean domain-wall width Δ̄ (nm).
    pub wall_width_nm: f64,
    /// Relative σ of the wall width.
    pub wall_width_rel_sigma: f64,
    /// Mean pinning potential depth V̄ (J/dm³).
    pub pin_depth: f64,
    /// Relative σ of the pinning depth.
    pub pin_depth_rel_sigma: f64,
    /// Mean pinning potential (notch) width d̄ (nm).
    pub notch_width_nm: f64,
    /// σ of the notch width, relative to d̄.
    pub notch_width_rel_sigma: f64,
    /// Mean flat-region width L̄ (nm).
    pub flat_width_nm: f64,
    /// σ of the flat width, relative to d̄ (the paper expresses both the
    /// d and L sigmas in units of d̄).
    pub flat_width_rel_sigma_of_d: f64,
    /// Drive current density during stage-1, as a multiple of the
    /// threshold J₀. The paper selects 2.0 to balance under- and
    /// over-shift errors.
    pub drive_ratio: f64,
    /// Relative σ of the per-shift environmental velocity noise.
    ///
    /// This folds thermal fluctuation and supply jitter into a single
    /// multiplicative velocity perturbation applied per shift operation.
    pub env_velocity_rel_sigma: f64,
    /// Nominal single-step transit time (flat + notch) at the nominal
    /// drive, in nanoseconds. The paper estimates stage-1 at 0.4 ns per
    /// step.
    pub step_time_ns: f64,
}

impl DeviceParams {
    /// The paper's Table 1 configuration.
    pub fn table1() -> Self {
        Self {
            wall_width_nm: 5.0,
            wall_width_rel_sigma: 0.02,
            pin_depth: 1.2,
            pin_depth_rel_sigma: 0.02,
            notch_width_nm: 45.0,
            notch_width_rel_sigma: 0.05,
            flat_width_nm: 150.0,
            flat_width_rel_sigma_of_d: 0.05 * 45.0 / 150.0,
            drive_ratio: 2.0,
            env_velocity_rel_sigma: 0.028,
            step_time_ns: 0.4,
        }
    }

    /// A perpendicular-magnetic-anisotropy (PMA) material variant, per
    /// the paper's Section 3.1 remark: "Using perpendicular material
    /// can reduce the size of domain but may increase error rate at the
    /// same time." Domains (and notches) shrink ~3×, boosting density;
    /// the narrower pinning sites and sharper walls raise the relative
    /// variation of every feature.
    pub fn perpendicular() -> Self {
        Self {
            wall_width_nm: 1.5,
            wall_width_rel_sigma: 0.03,
            pin_depth: 1.2,
            pin_depth_rel_sigma: 0.03,
            notch_width_nm: 15.0,
            notch_width_rel_sigma: 0.08,
            flat_width_nm: 50.0,
            flat_width_rel_sigma_of_d: 0.08 * 15.0 / 50.0,
            drive_ratio: 2.0,
            env_velocity_rel_sigma: 0.035,
            step_time_ns: 0.3,
        }
    }

    /// Returns a copy with a different drive ratio (J/J₀), used by the
    /// drive-current ablation: under-driving raises under-shift errors,
    /// over-driving raises over-shift errors.
    pub fn with_drive_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 1.0, "stage-1 drive must exceed threshold J0");
        self.drive_ratio = ratio;
        self
    }

    /// Returns a copy with scaled process variation (1.0 = Table 1).
    ///
    /// The paper notes its estimate is conservative and real devices may
    /// be worse; sweeping this factor exercises that sensitivity.
    pub fn with_variation_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0, "variation scale must be non-negative");
        self.wall_width_rel_sigma *= scale;
        self.pin_depth_rel_sigma *= scale;
        self.notch_width_rel_sigma *= scale;
        self.flat_width_rel_sigma_of_d *= scale;
        self.env_velocity_rel_sigma *= scale;
        self
    }

    /// Notch pitch (one step): flat region plus notch region, in nm.
    pub fn pitch_nm(&self) -> f64 {
        self.flat_width_nm + self.notch_width_nm
    }

    /// Half-width of the notch capture window in *step* units: a wall
    /// whose final continuous position lands within this distance of a
    /// notch centre is pinned there when the drive is removed.
    pub fn capture_half_window(&self) -> f64 {
        0.5 * self.notch_width_nm / self.pitch_nm()
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::{NoiseModel, ShiftSimulator};

    #[test]
    fn table1_matches_paper() {
        let p = DeviceParams::table1();
        assert_eq!(p.wall_width_nm, 5.0);
        assert_eq!(p.pin_depth, 1.2);
        assert_eq!(p.notch_width_nm, 45.0);
        assert_eq!(p.flat_width_nm, 150.0);
        assert_eq!(p.drive_ratio, 2.0);
        assert!((p.pitch_nm() - 195.0).abs() < 1e-12);
    }

    #[test]
    fn capture_window_is_fraction_of_pitch() {
        let p = DeviceParams::table1();
        let w = p.capture_half_window();
        assert!(w > 0.0 && w < 0.5, "w = {w}");
        assert!((w - 0.5 * 45.0 / 195.0).abs() < 1e-12);
    }

    #[test]
    fn variation_scale_zero_is_deterministic() {
        let p = DeviceParams::table1().with_variation_scale(0.0);
        let noise = NoiseModel::from_params(&p);
        assert_eq!(noise.sigma_fixed, 0.0);
        assert_eq!(noise.sigma_walk, 0.0);
        for n in 1..=7 {
            assert_eq!(noise.sigma_for(n), 0.0, "{n}-step shift");
        }
        // Only the drift is left, so the seed no longer matters.
        let mut a = ShiftSimulator::new(p, 5);
        let mut b = ShiftSimulator::new(p, 6);
        for n in 1..=7 {
            assert_eq!(a.shift_raw(n), b.shift_raw(n), "{n}-step shift");
        }
    }

    #[test]
    fn perpendicular_is_denser_but_noisier() {
        let inplane = DeviceParams::table1();
        let pma = DeviceParams::perpendicular();
        // ~3x smaller pitch = ~3x the areal density per stripe.
        assert!(pma.pitch_nm() < inplane.pitch_nm() / 2.5);
        // ...but every relative sigma is worse.
        assert!(pma.notch_width_rel_sigma > inplane.notch_width_rel_sigma);
        assert!(pma.env_velocity_rel_sigma > inplane.env_velocity_rel_sigma);
    }

    #[test]
    #[should_panic]
    fn drive_ratio_below_threshold_rejected() {
        let _ = DeviceParams::table1().with_drive_ratio(0.9);
    }
}
