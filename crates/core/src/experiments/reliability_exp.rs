//! Figs. 10-12 — MTTF under the protection schemes.
//!
//! Figs. 10 and 11 run the full hierarchy simulation per workload and
//! convert the accumulated SDC/DUE probability mass into MTTFs; Fig. 12
//! sweeps segment configurations analytically (the per-configuration
//! shift mix under the scheme's distance discipline at a fixed
//! intensity), mirroring the paper's fixed-error-rate sensitivity
//! study.

use super::{design::SEGMENT_CONFIGS, render_table, RtVariant, SimSweep, SweepSettings};
use rtm_controller::safety::SafetyBudget;
use rtm_pecc::layout::ProtectionKind;
use rtm_reliability::accounting::{ReliabilityReport, ShiftMix};
use rtm_util::units::{format_mttf, Seconds};

/// Per-workload MTTFs for one protection variant.
#[derive(Debug, Clone, PartialEq)]
pub struct MttfSeries {
    /// Variant label (paper legend).
    pub label: String,
    /// `(workload, mttf)` pairs in display order.
    pub per_workload: Vec<(&'static str, Seconds)>,
}

impl MttfSeries {
    /// Geometric mean across workloads (the paper reports averages of
    /// log-scale MTTFs).
    pub fn geomean(&self) -> Seconds {
        let finite: Vec<f64> = self
            .per_workload
            .iter()
            .map(|(_, m)| m.as_secs())
            .filter(|s| s.is_finite() && *s > 0.0)
            .collect();
        if finite.is_empty() {
            return Seconds(f64::INFINITY);
        }
        let ln_mean = finite.iter().map(|s| s.ln()).sum::<f64>() / finite.len() as f64;
        Seconds(ln_mean.exp())
    }
}

/// The Fig. 10 / Fig. 11 experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct MttfFigure {
    /// Which failure class is reported ("SDC" or "DUE").
    pub metric: &'static str,
    /// One series per protection variant.
    pub series: Vec<MttfSeries>,
}

/// Runs Fig. 10: SDC MTTF for baseline / SED / SECDED.
pub fn figure10_experiment(settings: &SweepSettings) -> MttfFigure {
    let variants = [RtVariant::Baseline, RtVariant::Sed, RtVariant::Secded];
    let sweep = SimSweep::run(settings, &variants, &[]);
    figure10_from(&sweep, settings)
}

/// Fig. 10 from a precomputed variant sweep (must include baseline,
/// SED and SECDED).
pub fn figure10_from(sweep: &SimSweep, settings: &SweepSettings) -> MttfFigure {
    let variants = [RtVariant::Baseline, RtVariant::Sed, RtVariant::Secded];
    mttf_figure(sweep, settings, &variants, "SDC")
}

/// Runs Fig. 11: DUE MTTF for the five protected configurations.
pub fn figure11_experiment(settings: &SweepSettings) -> MttfFigure {
    let variants = fig11_variants();
    let sweep = SimSweep::run(settings, &variants, &[]);
    figure11_from(&sweep, settings)
}

/// Fig. 11 from a precomputed variant sweep (must include the five
/// protected variants).
pub fn figure11_from(sweep: &SimSweep, settings: &SweepSettings) -> MttfFigure {
    mttf_figure(sweep, settings, &fig11_variants(), "DUE")
}

fn fig11_variants() -> [RtVariant; 5] {
    [
        RtVariant::Sed,
        RtVariant::Secded,
        RtVariant::SecdedO,
        RtVariant::SecdedSafeWorst,
        RtVariant::SecdedSafeAdaptive,
    ]
}

fn mttf_figure(
    sweep: &SimSweep,
    settings: &SweepSettings,
    variants: &[RtVariant],
    metric: &'static str,
) -> MttfFigure {
    let workloads: Vec<&'static str> = settings.profiles().iter().map(|p| p.name).collect();
    let series = variants
        .iter()
        .map(|v| {
            let per_workload = workloads
                .iter()
                .map(|&w| {
                    let r = &sweep.by_variant[w][v.label()];
                    let mttf = if metric == "SDC" {
                        r.sdc_mttf()
                    } else {
                        r.due_mttf()
                    };
                    (w, mttf)
                })
                .collect();
            MttfSeries {
                label: v.label().to_string(),
                per_workload,
            }
        })
        .collect();
    MttfFigure { metric, series }
}

impl MttfFigure {
    /// Renders workloads × variants.
    pub fn render(&self) -> String {
        let mut rows = vec![{
            let mut h = vec!["workload".to_string()];
            h.extend(self.series.iter().map(|s| s.label.clone()));
            h
        }];
        if let Some(first) = self.series.first() {
            for (i, (w, _)) in first.per_workload.iter().enumerate() {
                let mut row = vec![w.to_string()];
                for s in &self.series {
                    row.push(format_mttf(s.per_workload[i].1));
                }
                rows.push(row);
            }
        }
        let mut row = vec!["geomean".to_string()];
        for s in &self.series {
            row.push(format_mttf(s.geomean()));
        }
        rows.push(row);
        let fig = if self.metric == "SDC" { "10" } else { "11" };
        let mut out = format!(
            "Figure {fig}: {} MTTF under different protection\n\n",
            self.metric
        );
        out.push_str(&render_table(&rows));
        out
    }

    /// The figure as structured rows (MTTFs in seconds), e.g. for CSV.
    pub fn rows_seconds(&self) -> Vec<Vec<String>> {
        let mut rows = vec![{
            let mut h = vec!["workload".to_string()];
            h.extend(self.series.iter().map(|s| s.label.clone()));
            h
        }];
        if let Some(first) = self.series.first() {
            for (i, (w, _)) in first.per_workload.iter().enumerate() {
                let mut row = vec![w.to_string()];
                for s in &self.series {
                    row.push(format!("{:.6e}", s.per_workload[i].1.as_secs()));
                }
                rows.push(row);
            }
        }
        let mut row = vec!["geomean".to_string()];
        for s in &self.series {
            row.push(format!("{:.6e}", s.geomean().as_secs()));
        }
        rows.push(row);
        rows
    }

    /// The figure as CSV (MTTFs in seconds).
    pub fn csv(&self) -> String {
        super::to_csv(&self.rows_seconds())
    }
}

/// One Fig. 12 row: a segment configuration and the DUE MTTFs of the
/// adaptive and overhead-region designs.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure12Row {
    /// Display label, e.g. "8x8".
    pub config: String,
    /// p-ECC-S adaptive DUE MTTF.
    pub pecc_s_adaptive: Option<Seconds>,
    /// p-ECC-O DUE MTTF.
    pub pecc_o: Option<Seconds>,
}

/// Runs the Fig. 12 sensitivity sweep at a fixed stripe-operation
/// intensity (the paper holds the error rate constant and varies the
/// configuration).
pub fn figure12_experiment(stripe_intensity: f64) -> Vec<Figure12Row> {
    let budget = SafetyBudget::paper_secded();
    SEGMENT_CONFIGS
        .iter()
        .map(|&(segments, lseg)| {
            let max_shift = lseg - 1;
            // SECDED requires m + 1 < Lseg.
            let fits = lseg > 2;
            let pecc_s_adaptive = fits.then(|| {
                // The adaptive policy caps distances at the safe distance
                // for the running intensity (never above the geometry).
                let dsafe = budget
                    .safe_distance_at(stripe_intensity)
                    .unwrap_or(1)
                    .min(max_shift as u32)
                    .max(1);
                let mix = ShiftMix::uniform(1..=dsafe);
                ReliabilityReport::analytic(ProtectionKind::SECDED, &mix, stripe_intensity)
                    .due_mttf()
            });
            let pecc_o = fits.then(|| {
                ReliabilityReport::analytic(
                    ProtectionKind::SECDED_O,
                    &ShiftMix::single(1),
                    stripe_intensity,
                )
                .due_mttf()
            });
            Figure12Row {
                config: format!("{segments}x{lseg}"),
                pecc_s_adaptive,
                pecc_o,
            }
        })
        .collect()
}

/// Renders the Fig. 12 sweep.
pub fn render_figure12(rows: &[Figure12Row]) -> String {
    let mut table = vec![vec![
        "config".to_string(),
        "p-ECC-S adaptive".to_string(),
        "p-ECC-O".to_string(),
    ]];
    for r in rows {
        let opt = |v: &Option<Seconds>| v.map(format_mttf).unwrap_or_else(|| "-".to_string());
        table.push(vec![
            r.config.clone(),
            opt(&r.pecc_s_adaptive),
            opt(&r.pecc_o),
        ]);
    }
    let mut out = String::from("Figure 12: DUE MTTF sensitivity across segment configurations\n\n");
    out.push_str(&render_table(&table));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn quick() -> SweepSettings {
        let mut s = SweepSettings::quick();
        s.accesses = 20_000;
        s
    }

    #[test]
    fn figure10_ordering_matches_paper() {
        let f = figure10_experiment(&quick());
        assert_eq!(f.metric, "SDC");
        let by_label: BTreeMap<&str, Seconds> = f
            .series
            .iter()
            .map(|s| (s.label.as_str(), s.geomean()))
            .collect();
        // Baseline is microsecond-scale; SED hours; SECDED > 1000 years.
        let base = by_label["Baseline"].as_secs();
        let sed = by_label["SED p-ECC"].as_secs();
        let secded = by_label["SECDED p-ECC"].as_secs();
        assert!(base < 1.0, "baseline {base}");
        assert!(sed > base * 1e3, "sed {sed}");
        assert!(
            secded > 1000.0 * rtm_util::units::SECONDS_PER_YEAR,
            "secded {secded}"
        );
    }

    #[test]
    fn figure11_safe_distance_wins() {
        let f = figure11_experiment(&quick());
        let by_label: BTreeMap<&str, Seconds> = f
            .series
            .iter()
            .map(|s| (s.label.as_str(), s.geomean()))
            .collect();
        let sed = by_label["SED p-ECC"].as_secs();
        let secded = by_label["SECDED p-ECC"].as_secs();
        let adaptive = by_label["SECDED p-ECC-S adaptive"].as_secs();
        let o = by_label["SECDED p-ECC-O"].as_secs();
        assert!(sed < secded);
        assert!(secded < adaptive);
        // Fig. 11/12: p-ECC-O achieves the highest DUE MTTF.
        assert!(o >= adaptive);
        // The 10-year target is met by the adaptive design.
        assert!(adaptive > 10.0 * rtm_util::units::SECONDS_PER_YEAR);
        assert!(f.render().contains("geomean"));
    }

    #[test]
    fn figure12_pecc_o_is_flat_and_high() {
        let rows = figure12_experiment(5.12e9);
        let o_vals: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.pecc_o.map(|m| m.as_secs()))
            .collect();
        // All p-ECC-O configurations share the 1-step discipline.
        for v in &o_vals {
            assert!((v / o_vals[0] - 1.0).abs() < 1e-9);
        }
        // Lseg = 2 rows are blank (SECDED does not fit).
        assert!(rows.iter().any(|r| r.pecc_s_adaptive.is_none()));
        assert!(render_figure12(&rows).contains("Figure 12"));
    }
}
