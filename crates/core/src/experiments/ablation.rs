//! Ablation studies on the design choices the paper calls out in
//! prose but does not plot:
//!
//! * **drive ratio** — Section 3.1: driving below 2·J₀ raises
//!   under-shift errors, above it over-shift errors; 2·J₀ minimises
//!   the total. [`drive_ratio_sweep`] quantifies that U-curve.
//! * **process variation** — Section 3.1's "our model uses a
//!   conservative estimation ... the error rate can be even higher in
//!   real cases". [`variation_sweep`] scales every σ and watches the
//!   rates and the unprotected MTTF collapse.
//! * **protection strength** — Section 4.2.3 derives costs for
//!   arbitrary m; [`strength_sweep`] trades DUE MTTF against storage
//!   and port overhead for m = 1…4.
//! * **STS on/off** — Section 4.1 converts stop-in-middle errors into
//!   out-of-step errors; [`sts_conversion`] shows both distributions
//!   side by side.

use super::render_table;
use rtm_cost::area::AreaModel;
use rtm_model::analytic::Engine;
use rtm_model::params::DeviceParams;
use rtm_model::rates::OutOfStepRates;
use rtm_model::shift::NoiseModel;
use rtm_pecc::layout::{PeccLayout, ProtectionKind};
use rtm_reliability::accounting::{ReliabilityReport, ShiftMix};
use rtm_track::geometry::StripeGeometry;
use rtm_util::units::format_mttf;

/// One row of the drive-ratio ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveRow {
    /// Drive ratio J/J₀.
    pub ratio: f64,
    /// Raw (stage-1 only) stop-in-middle rate for a 4-step shift —
    /// the repair burden STS carries.
    pub raw_stop_in_middle: f64,
    /// Post-STS ±1 out-of-step rate for a 4-step shift.
    pub k1_rate: f64,
    /// Fraction of post-STS errors that over-shift.
    pub plus_fraction: f64,
}

/// Sweeps the stage-1 drive current ratio. Under-driving leaves walls
/// short of their notch (a huge raw stop-in-middle rate that positive
/// STS repairs, at a latency/energy burden); over-driving pushes walls
/// past the notch (post-STS +1 out-of-step errors STS cannot repair) —
/// the two failure directions behind the paper's choice of 2·J₀.
pub fn drive_ratio_sweep() -> Vec<DriveRow> {
    [1.3, 1.6, 2.0, 2.5, 3.0]
        .iter()
        .map(|&ratio| {
            let params = DeviceParams::table1().with_drive_ratio(ratio);
            let noise = NoiseModel::from_params(&params);
            let rates = OutOfStepRates::from_noise_model(&noise);
            DriveRow {
                ratio,
                raw_stop_in_middle: noise.raw_stop_in_middle_rate(4),
                k1_rate: rates.rate(4, 1),
                plus_fraction: rates.plus_fraction(),
            }
        })
        .collect()
}

/// One row of the variation-scale ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationRow {
    /// Multiplier applied to every σ in Table 1.
    pub scale: f64,
    /// ±1 rate for a 7-step shift.
    pub k1_rate_7: f64,
    /// Unprotected SDC MTTF at the reference intensity.
    pub unprotected_mttf_secs: f64,
}

/// Sweeps the process/environment variation scale.
pub fn variation_sweep(stripe_intensity: f64) -> Vec<VariationRow> {
    [0.5, 0.75, 1.0, 1.5, 2.0]
        .iter()
        .map(|&scale| {
            let params = DeviceParams::table1().with_variation_scale(scale);
            let rates = OutOfStepRates::from_noise_model(&NoiseModel::from_params(&params));
            let report = ReliabilityReport::with_rates(
                ProtectionKind::None,
                &ShiftMix::uniform(1..=7),
                stripe_intensity,
                &rates,
            );
            VariationRow {
                scale,
                k1_rate_7: rates.rate(7, 1),
                unprotected_mttf_secs: report.sdc_mttf().as_secs(),
            }
        })
        .collect()
}

/// One row of the protection-strength ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrengthRow {
    /// Correction strength m.
    pub m: u32,
    /// DUE MTTF at the reference intensity (uniform 1..7 mix).
    pub due_mttf_secs: f64,
    /// Storage overhead fraction.
    pub storage_overhead: f64,
    /// Extra read ports.
    pub extra_read_ports: usize,
    /// Area per data bit (F²).
    pub area_per_bit: f64,
}

/// Sweeps the p-ECC correction strength on a 64-domain, 4-port stripe
/// (Lseg = 16 admits strengths well past SECDED).
pub fn strength_sweep(stripe_intensity: f64) -> Vec<StrengthRow> {
    let geometry = StripeGeometry::new(64, 4).expect("valid geometry");
    let area = AreaModel::paper();
    (1..=4u32)
        .map(|m| {
            let kind = ProtectionKind::Correcting { m };
            let layout = PeccLayout::new(geometry, kind).expect("strength fits Lseg 16");
            let report =
                ReliabilityReport::analytic(kind, &ShiftMix::uniform(1..=7), stripe_intensity);
            StrengthRow {
                m,
                due_mttf_secs: report.due_mttf().as_secs(),
                storage_overhead: layout.storage_overhead(),
                extra_read_ports: layout.extra_read_ports,
                area_per_bit: area.protected_area_per_bit(&layout).value(),
            }
        })
        .collect()
}

/// One row of the STS conversion study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StsRow {
    /// Shift distance.
    pub distance: u32,
    /// Raw (stage-1 only) stop-in-middle probability.
    pub raw_stop_in_middle: f64,
    /// Raw out-of-step probability.
    pub raw_out_of_step: f64,
    /// Out-of-step probability after STS (stop-in-middle mass folded
    /// in; the calibrated Table 2 value shown for reference).
    pub sts_out_of_step: f64,
}

/// Quantifies the STS error-class conversion for 1-, 4- and 7-step
/// shifts from the requested position-error engine: Monte-Carlo plus
/// analytic tails, or with [`Engine::Analytic`] exact erf bands (for
/// which `trials`/`seed` are ignored).
pub fn sts_conversion(trials: u64, seed: u64, engine: Engine) -> Vec<StsRow> {
    let params = DeviceParams::table1();
    let rates = OutOfStepRates::paper_calibration();
    [1u32, 4, 7]
        .iter()
        .map(|&d| {
            let pdf = engine.position_pdf(&params, d, trials, seed + d as u64);
            StsRow {
                distance: d,
                raw_stop_in_middle: pdf.stop_in_middle_probability(),
                raw_out_of_step: pdf.out_of_step_probability(),
                sts_out_of_step: rates.any_error_rate(d),
            }
        })
        .collect()
}

/// One row of the material comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterialRow {
    /// Material name.
    pub name: &'static str,
    /// Notch pitch in nm (density proxy — smaller is denser).
    pub pitch_nm: f64,
    /// ±1 rate for a 4-step shift.
    pub k1_rate_4: f64,
}

/// Compares in-plane (Table 1) against perpendicular (PMA) material,
/// per Section 3.1's closing remark: PMA shrinks domains but raises
/// the error rate.
pub fn material_comparison() -> [MaterialRow; 2] {
    let row = |name, params: DeviceParams| {
        let rates = OutOfStepRates::from_noise_model(&NoiseModel::from_params(&params));
        MaterialRow {
            name,
            pitch_nm: params.pitch_nm(),
            k1_rate_4: rates.rate(4, 1),
        }
    };
    [
        row("in-plane (Table 1)", DeviceParams::table1()),
        row("perpendicular (PMA)", DeviceParams::perpendicular()),
    ]
}

/// One row of the head-management ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadPolicyRow {
    /// Policy name.
    pub policy: &'static str,
    /// Critical-path shift cycles over the probe pattern.
    pub shift_cycles: u64,
    /// Total shift steps (including idle repositioning).
    pub total_steps: u64,
}

/// Compares the paper's stay-in-place head policy against idle
/// return-to-centre (the head-management direction of the prior work
/// the paper cites) on a way-scanning probe pattern.
pub fn head_policy_comparison(accesses: u64) -> [HeadPolicyRow; 2] {
    use rtm_controller::controller::ShiftPolicy;
    use rtm_mem::cache::AccessKind;
    use rtm_mem::llc::{HeadPolicy, LlcModel, RacetrackLlc};

    let run = |policy: HeadPolicy, name: &'static str| {
        let mut llc = RacetrackLlc::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
            .with_head_policy(policy);
        let sets = 131_072u64; // the 128 MB LLC's set count
        let stride = sets * 64;
        let mut rng = rtm_util::rng::SmallRng64::new(7);
        let mut t = 0u64;
        for _ in 0..accesses {
            let way = rng.next_below(16);
            t += 200;
            llc.access(way * stride, AccessKind::Read, t);
        }
        let s = llc.stats();
        HeadPolicyRow {
            policy: name,
            shift_cycles: s.shift_cycles,
            total_steps: s.shift_steps,
        }
    };
    [
        run(HeadPolicy::Stay, "stay (paper)"),
        run(HeadPolicy::ReturnToCentre, "return-to-centre"),
    ]
}

/// Renders all the ablations as one report, with the STS-conversion
/// study driven by the requested position-error engine.
pub fn render_ablations(trials: u64, seed: u64, stripe_intensity: f64, engine: Engine) -> String {
    let mut out = String::from("Ablation 1: drive current ratio (4-step shift)\n\n");
    let mut rows = vec![vec![
        "J/J0".to_string(),
        "raw stop-in-middle".to_string(),
        "±1 rate (post-STS)".to_string(),
        "over-shift share".to_string(),
    ]];
    for r in drive_ratio_sweep() {
        rows.push(vec![
            format!("{:.1}", r.ratio),
            format!("{:.2e}", r.raw_stop_in_middle),
            format!("{:.2e}", r.k1_rate),
            format!("{:.2}", r.plus_fraction),
        ]);
    }
    out.push_str(&render_table(&rows));

    out.push_str("\nAblation 2: process-variation scale\n\n");
    let mut rows = vec![vec![
        "scale".to_string(),
        "±1 rate (7-step)".to_string(),
        "unprotected MTTF".to_string(),
    ]];
    for r in variation_sweep(stripe_intensity) {
        rows.push(vec![
            format!("{:.2}", r.scale),
            format!("{:.2e}", r.k1_rate_7),
            format_mttf(rtm_util::units::Seconds(r.unprotected_mttf_secs)),
        ]);
    }
    out.push_str(&render_table(&rows));

    out.push_str("\nAblation 3: p-ECC correction strength (64x4 stripe)\n\n");
    let mut rows = vec![vec![
        "m".to_string(),
        "DUE MTTF".to_string(),
        "storage overhead".to_string(),
        "extra read ports".to_string(),
        "area/bit (F^2)".to_string(),
    ]];
    for r in strength_sweep(stripe_intensity) {
        rows.push(vec![
            r.m.to_string(),
            format_mttf(rtm_util::units::Seconds(r.due_mttf_secs)),
            format!("{:.1}%", r.storage_overhead * 100.0),
            r.extra_read_ports.to_string(),
            format!("{:.2}", r.area_per_bit),
        ]);
    }
    out.push_str(&render_table(&rows));

    out.push_str("\nAblation 4: STS error-class conversion\n\n");
    let mut rows = vec![vec![
        "distance".to_string(),
        "raw stop-in-middle".to_string(),
        "raw out-of-step".to_string(),
        "after STS (out-of-step)".to_string(),
    ]];
    for r in sts_conversion(trials, seed, engine) {
        rows.push(vec![
            r.distance.to_string(),
            format!("{:.2e}", r.raw_stop_in_middle),
            format!("{:.2e}", r.raw_out_of_step),
            format!("{:.2e}", r.sts_out_of_step),
        ]);
    }
    out.push_str(&render_table(&rows));

    out.push_str("\nAblation 5: material comparison (Section 3.1 remark)\n\n");
    let mut rows = vec![vec![
        "material".to_string(),
        "pitch (nm)".to_string(),
        "±1 rate (4-step)".to_string(),
    ]];
    for r in material_comparison() {
        rows.push(vec![
            r.name.to_string(),
            format!("{:.0}", r.pitch_nm),
            format!("{:.2e}", r.k1_rate_4),
        ]);
    }
    out.push_str(&render_table(&rows));

    out.push_str("\nAblation 6: conventional bit-ECC vs p-ECC (Section 3.2)\n\n");
    let becc = rtm_reliability::becc::BitEccScenario::paper_example(1.0e7);
    let pecc = ReliabilityReport::analytic(
        ProtectionKind::SECDED,
        &ShiftMix::uniform(1..=3),
        1.0e7 * 512.0,
    );
    out.push_str(&format!(
        "  word-per-stripe b-ECC detects {:.0}% of position errors (aliasing)\n",
        rtm_reliability::becc::word_per_stripe_detection_fraction() * 100.0
    ));
    out.push_str(&format!(
        "  bit-interleaved b-ECC: second-error probability during refresh {:.2} (paper: 0.17)\n",
        becc.second_error_probability()
    ));
    out.push_str(&format!(
        "  bit-interleaved b-ECC MTTF: {}\n",
        format_mttf(becc.mttf())
    ));
    out.push_str(&format!(
        "  SECDED p-ECC (safe distance 3) DUE MTTF: {}\n",
        format_mttf(pecc.due_mttf())
    ));

    out.push_str("\nAblation 7: idle head management (way-scan probe)\n\n");
    let mut rows = vec![vec![
        "policy".to_string(),
        "critical-path shift cycles".to_string(),
        "total steps".to_string(),
    ]];
    for r in head_policy_comparison(2_000) {
        rows.push(vec![
            r.policy.to_string(),
            r.shift_cycles.to_string(),
            r.total_steps.to_string(),
        ]);
    }
    out.push_str(&render_table(&rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_sweep_shows_both_failure_directions() {
        let rows = drive_ratio_sweep();
        let at = |r: f64| rows.iter().find(|x| x.ratio == r).unwrap();
        // 2.0 minimises the raw stop-in-middle (repair) burden: the
        // U-curve behind the paper's drive choice.
        assert!(at(2.0).raw_stop_in_middle < at(1.3).raw_stop_in_middle / 10.0);
        assert!(at(2.0).raw_stop_in_middle < at(3.0).raw_stop_in_middle / 10.0);
        // Over-driving creates out-of-step errors STS cannot repair...
        assert!(at(3.0).k1_rate > at(2.0).k1_rate * 10.0);
        assert!(at(3.0).plus_fraction > 0.9, "over-drive errors over-shift");
        // ...while under-shoot middles are swept back by positive STS,
        // so the under-driven post-STS rate stays low (the burden shows
        // up as repair latency, not residual errors).
        assert!(at(1.3).k1_rate < at(3.0).k1_rate);
    }

    #[test]
    fn variation_sweep_is_monotone() {
        let rows = variation_sweep(5.12e9);
        for w in rows.windows(2) {
            assert!(w[1].k1_rate_7 >= w[0].k1_rate_7);
            assert!(w[1].unprotected_mttf_secs <= w[0].unprotected_mttf_secs);
        }
        // Doubling variation costs orders of magnitude of MTTF.
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(last.k1_rate_7 > first.k1_rate_7 * 10.0);
    }

    #[test]
    fn strength_sweep_trades_reliability_for_area() {
        let rows = strength_sweep(5.12e9);
        for w in rows.windows(2) {
            assert!(w[1].due_mttf_secs > w[0].due_mttf_secs, "MTTF grows with m");
            assert!(w[1].storage_overhead > w[0].storage_overhead);
            assert!(w[1].extra_read_ports > w[0].extra_read_ports);
            assert!(w[1].area_per_bit > w[0].area_per_bit);
        }
        // m = 2 already pushes DUE MTTF beyond any practical horizon.
        assert!(rows[1].due_mttf_secs > 1e12);
    }

    #[test]
    fn sts_conversion_moves_mass() {
        let rows = sts_conversion(300_000, 11, Engine::MonteCarlo);
        for r in &rows {
            // Raw shifts are dominated by stop-in-middle...
            assert!(
                r.raw_stop_in_middle > r.raw_out_of_step,
                "distance {}",
                r.distance
            );
            // ...and the post-STS out-of-step rate absorbs that mass
            // (same order of magnitude as the raw total error rate).
            let raw_total = r.raw_stop_in_middle + r.raw_out_of_step;
            assert!(
                r.sts_out_of_step > raw_total * 0.1 && r.sts_out_of_step < raw_total * 10.0,
                "distance {}: raw {raw_total:.2e} vs sts {:.2e}",
                r.distance,
                r.sts_out_of_step
            );
        }
    }

    #[test]
    fn material_comparison_trades_density_for_errors() {
        let [inplane, pma] = material_comparison();
        assert!(pma.pitch_nm < inplane.pitch_nm / 2.5, "PMA is denser");
        assert!(pma.k1_rate_4 > inplane.k1_rate_4, "PMA errs more");
    }

    #[test]
    fn head_policy_trade_is_visible() {
        let [stay, centre] = head_policy_comparison(1_500);
        assert!(centre.shift_cycles < stay.shift_cycles);
        assert!(centre.total_steps > stay.total_steps);
    }

    #[test]
    fn sts_conversion_analytic_matches_mc() {
        let mc = sts_conversion(400_000, 11, Engine::MonteCarlo);
        let an = sts_conversion(0, 0, Engine::Analytic);
        for (m, a) in mc.iter().zip(an.iter()) {
            assert_eq!(m.distance, a.distance);
            // The shared Table 2 reference column is engine-independent.
            assert_eq!(m.sts_out_of_step, a.sts_out_of_step);
            // Raw stop-in-middle is the dominant class — plenty of MC
            // samples, so the engines must agree tightly.
            let ratio = a.raw_stop_in_middle / m.raw_stop_in_middle;
            assert!(
                (0.9..1.1).contains(&ratio),
                "distance {}: analytic {:.3e} vs mc {:.3e}",
                m.distance,
                a.raw_stop_in_middle,
                m.raw_stop_in_middle
            );
        }
    }

    #[test]
    fn render_contains_all_seven_sections() {
        let text = render_ablations(50_000, 3, 5.12e9, Engine::MonteCarlo);
        for i in 1..=7 {
            assert!(
                text.contains(&format!("Ablation {i}")),
                "missing section {i}"
            );
        }
        assert!(text.contains("paper: 0.17"));
    }
}
