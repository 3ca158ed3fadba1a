//! Figs. 14-16 — shift latency and execution time.

use super::sweep::{RtVariant, SimSweep, SweepSettings};
use super::{design::SEGMENT_CONFIGS, render_table};
use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_controller::safety::SafetyBudget;
use rtm_mem::hierarchy::LlcChoice;
use rtm_model::rates::OutOfStepRates;
use rtm_model::sts::StsTiming;
use rtm_obs::attrib::AttributionTable;
use rtm_pecc::layout::ProtectionKind;
use std::collections::BTreeMap;

/// Normalised per-workload series for a bar figure.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalisedFigure {
    /// Figure title.
    pub title: String,
    /// Baseline label every series is normalised to.
    pub baseline: String,
    /// Series labels in display order.
    pub labels: Vec<String>,
    /// `(workload, values-per-label)` rows.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

impl NormalisedFigure {
    /// Arithmetic-mean row across workloads.
    pub fn mean(&self) -> Vec<f64> {
        if self.rows.is_empty() {
            return Vec::new();
        }
        let n = self.labels.len();
        let mut acc = vec![0.0; n];
        for (_, vals) in &self.rows {
            for (a, v) in acc.iter_mut().zip(vals) {
                *a += v;
            }
        }
        acc.iter().map(|a| a / self.rows.len() as f64).collect()
    }

    /// Renders workloads × series with a mean row.
    pub fn render(&self) -> String {
        let mut table = vec![{
            let mut h = vec!["workload".to_string()];
            h.extend(self.labels.clone());
            h
        }];
        for (w, vals) in &self.rows {
            let mut row = vec![w.to_string()];
            row.extend(vals.iter().map(|v| format!("{v:.3}")));
            table.push(row);
        }
        let mut row = vec!["mean".to_string()];
        row.extend(self.mean().iter().map(|v| format!("{v:.3}")));
        table.push(row);
        let mut out = format!("{}\n(normalised to {})\n\n", self.title, self.baseline);
        out.push_str(&render_table(&table));
        out
    }

    /// The mean value for one series label.
    pub fn mean_of(&self, label: &str) -> Option<f64> {
        let idx = self.labels.iter().position(|l| l == label)?;
        Some(self.mean()[idx])
    }

    /// The figure as structured rows (header + per-workload + mean),
    /// e.g. for CSV export.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut table = vec![{
            let mut h = vec!["workload".to_string()];
            h.extend(self.labels.clone());
            h
        }];
        for (w, vals) in &self.rows {
            let mut row = vec![w.to_string()];
            row.extend(vals.iter().map(|v| format!("{v:.6}")));
            table.push(row);
        }
        let mut row = vec!["mean".to_string()];
        row.extend(self.mean().iter().map(|v| format!("{v:.6}")));
        table.push(row);
        table
    }

    /// The figure as CSV.
    pub fn csv(&self) -> String {
        super::to_csv(&self.rows())
    }
}

/// Runs Fig. 14: total LLC shift latency per workload, normalised to
/// the unprotected baseline.
pub fn figure14_experiment(settings: &SweepSettings) -> NormalisedFigure {
    let sweep = SimSweep::run(settings, &fig14_variants(), &[]);
    figure14_from(&sweep, settings)
}

fn fig14_variants() -> [RtVariant; 4] {
    [
        RtVariant::Baseline,
        RtVariant::SecdedO,
        RtVariant::SecdedSafeAdaptive,
        RtVariant::SecdedSafeWorst,
    ]
}

/// Fig. 14 from a precomputed variant sweep (must include the baseline
/// and the three protected variants).
pub fn figure14_from(sweep: &SimSweep, settings: &SweepSettings) -> NormalisedFigure {
    let variants = fig14_variants();
    let labels: Vec<String> = variants[1..]
        .iter()
        .map(|v| v.label().to_string())
        .collect();
    let rows = settings
        .profiles()
        .iter()
        .map(|p| {
            let per = &sweep.by_variant[p.name];
            let base = per[RtVariant::Baseline.label()].llc.shift_cycles.max(1) as f64;
            let vals = variants[1..]
                .iter()
                .map(|v| per[v.label()].llc.shift_cycles as f64 / base)
                .collect();
            (p.name, vals)
        })
        .collect();
    NormalisedFigure {
        title: "Figure 14: relative total shift latency of racetrack memory".to_string(),
        baseline: RtVariant::Baseline.label().to_string(),
        labels,
        rows,
    }
}

/// One Fig. 15 row: average per-request shift latency (cycles) under
/// each design for a segment configuration, normalised to the
/// configuration's unconstrained single-shift latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure15Row {
    /// Display label, e.g. "8x8".
    pub config: String,
    /// p-ECC-S adaptive normalised latency.
    pub pecc_s_adaptive: Option<f64>,
    /// p-ECC-O normalised latency.
    pub pecc_o: Option<f64>,
}

/// Runs the Fig. 15 sensitivity sweep analytically: uniform request
/// distances over `[1, Lseg − 1]`, a moderately busy request interval,
/// and the per-scheme planning rules.
pub fn figure15_experiment(interval_cycles: u64) -> Vec<Figure15Row> {
    let timing = StsTiming::paper();
    SEGMENT_CONFIGS
        .iter()
        .map(|&(segments, lseg)| {
            let fits = lseg > 2;
            let max_d = (lseg - 1) as u32;
            let baseline_mean = |ctl: &ShiftController| -> f64 {
                // Average over the uniform distance mix.
                (1..=max_d)
                    .map(|d| ctl.cost_sequence(&[d]).latency.count() as f64)
                    .sum::<f64>()
                    / max_d as f64
            };
            let row = |policy: ShiftPolicy, kind: ProtectionKind| -> f64 {
                let budget = SafetyBudget::new(
                    OutOfStepRates::paper_calibration(),
                    rtm_controller::safety::PAPER_RELIABILITY_TARGET,
                    kind.strength(),
                );
                let mut ctl = ShiftController::with_parts(kind, policy, timing, budget, max_d);
                let base = {
                    let bare = ShiftController::with_parts(
                        ProtectionKind::None,
                        ShiftPolicy::Unconstrained,
                        timing,
                        SafetyBudget::new(
                            OutOfStepRates::paper_calibration(),
                            rtm_controller::safety::PAPER_RELIABILITY_TARGET,
                            0,
                        ),
                        max_d,
                    );
                    baseline_mean(&bare)
                };
                let mut total = 0.0;
                for d in 1..=max_d {
                    let plan = ctl.plan_shift(d, (d as u64) * interval_cycles);
                    total += plan.latency.count() as f64;
                }
                (total / max_d as f64) / base
            };
            Figure15Row {
                config: format!("{segments}x{lseg}"),
                pecc_s_adaptive: fits.then(|| row(ShiftPolicy::Adaptive, ProtectionKind::SECDED)),
                pecc_o: fits.then(|| row(ShiftPolicy::StepByStep, ProtectionKind::SECDED_O)),
            }
        })
        .collect()
}

/// Renders the Fig. 15 sweep.
pub fn render_figure15(rows: &[Figure15Row]) -> String {
    let mut table = vec![vec![
        "config".to_string(),
        "p-ECC-S adaptive".to_string(),
        "p-ECC-O".to_string(),
    ]];
    for r in rows {
        let opt = |v: &Option<f64>| {
            v.map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".to_string())
        };
        table.push(vec![
            r.config.clone(),
            opt(&r.pecc_s_adaptive),
            opt(&r.pecc_o),
        ]);
    }
    let mut out = String::from(
        "Figure 15: normalised average shift latency across segment configurations\n\n",
    );
    out.push_str(&render_table(&table));
    out
}

/// Runs Fig. 16: overall execution time across the seven LLC designs,
/// normalised to SRAM.
pub fn figure16_experiment(settings: &SweepSettings) -> NormalisedFigure {
    let sweep = SimSweep::run(settings, &[], &LlcChoice::ALL);
    figure16_from(&sweep, settings)
}

/// Fig. 16 from a precomputed choice sweep over [`LlcChoice::ALL`].
pub fn figure16_from(sweep: &SimSweep, settings: &SweepSettings) -> NormalisedFigure {
    let choices = LlcChoice::ALL;
    let labels: Vec<String> = choices.iter().map(|c| c.to_string()).collect();
    let rows = settings
        .profiles()
        .iter()
        .map(|p| {
            let per = &sweep.by_choice[p.name];
            let base = per["SRAM"].cycles.max(1) as f64;
            let vals = choices
                .iter()
                .map(|c| per[&c.to_string()].cycles as f64 / base)
                .collect();
            (p.name, vals)
        })
        .collect();
    NormalisedFigure {
        title: "Figure 16: overall execution time".to_string(),
        baseline: "SRAM".to_string(),
        labels,
        rows,
    }
}

/// Component names of the Fig. 14 cycle-attribution table.
///
/// Per (workload, variant) cell the execution cycles decompose exactly
/// into raw STS pulse time (`sts_shift`), the in-line p-ECC check
/// cycles folded into every protected sub-shift (`pecc_verify`),
/// explicit back-shifts (`back_shift`, always 0 here: the statistical
/// controller folds correction cost into the plan latency), and
/// everything the core pipeline does outside LLC shifting
/// (`core_other` — compute, cache hits, DRAM).
pub const FIG14_COMPONENTS: [&str; 4] = ["sts_shift", "pecc_verify", "back_shift", "core_other"];

/// Cycle attribution per (workload, variant) for the Fig. 14 sweep:
/// every execution cycle lands in exactly one [`FIG14_COMPONENTS`]
/// bucket, so each row's components sum to its `cycles` total exactly.
pub fn figure14_attribution(sweep: &SimSweep, settings: &SweepSettings) -> AttributionTable {
    let mut table = AttributionTable::new(["workload", "scheme"], FIG14_COMPONENTS);
    for p in settings.profiles() {
        let per = &sweep.by_variant[p.name];
        for v in fig14_variants() {
            let Some(r) = per.get(v.label()) else {
                continue;
            };
            let sts = r.llc.shift_cycles - r.llc.verify_cycles;
            table.push(
                [p.name.to_string(), v.label().to_string()],
                [sts, r.llc.verify_cycles, 0, r.cycles - r.llc.shift_cycles],
                r.cycles,
            );
        }
    }
    table
}

/// Renders the Fig. 14 attribution table as a text report.
pub fn render_figure14_attribution(table: &AttributionTable) -> String {
    let mut out = String::from(
        "Figure 14 cycle attribution per (workload, scheme); components\n\
         partition the execution cycles exactly:\n\n",
    );
    out.push_str(&render_table(&table.rows()));
    out
}

/// Headline overhead summary (abstract anchor: ~0.2 % for adaptive):
/// execution-time overhead of each protected design over the
/// unprotected racetrack memory.
pub fn protection_overhead_summary(fig16: &NormalisedFigure) -> BTreeMap<String, f64> {
    let base = fig16
        .mean_of("RM w/o p-ECC")
        .expect("baseline series present");
    ["RM p-ECC-O", "RM p-ECC-S worst", "RM p-ECC-S adaptive"]
        .iter()
        .filter_map(|l| fig16.mean_of(l).map(|v| ((*l).to_string(), v / base - 1.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepSettings {
        let mut s = SweepSettings::quick();
        s.accesses = 20_000;
        s
    }

    #[test]
    fn figure14_pecc_o_costs_most() {
        let f = figure14_experiment(&quick());
        let o = f.mean_of("SECDED p-ECC-O").unwrap();
        let adaptive = f.mean_of("SECDED p-ECC-S adaptive").unwrap();
        let worst = f.mean_of("SECDED p-ECC-S worst").unwrap();
        // Fig. 14 shape: p-ECC-O ≈ 2× baseline; safe-distance variants
        // land well below it.
        assert!(o > 1.5, "p-ECC-O ratio {o}");
        assert!(adaptive < o, "adaptive {adaptive} vs O {o}");
        assert!(worst < o);
        assert!(adaptive >= 1.0 && worst >= 1.0);
        assert!(f.render().contains("Figure 14"));
    }

    #[test]
    fn figure15_adaptive_wins_at_long_segments() {
        let rows = figure15_experiment(200);
        let long = rows.iter().find(|r| r.config == "2x64").unwrap();
        let (a, o) = (long.pecc_s_adaptive.unwrap(), long.pecc_o.unwrap());
        assert!(a < o, "adaptive {a} vs O {o} at Lseg=64");
        // Short segments: both are close to the baseline.
        let short = rows.iter().find(|r| r.config == "8x4").unwrap();
        assert!(short.pecc_o.unwrap() < 3.0);
        assert!(render_figure15(&rows).contains("2x64"));
    }

    #[test]
    fn figure16_capacity_sensitivity_split() {
        let mut s = quick();
        s.workloads = Some(vec!["canneal", "swaptions"]);
        s.accesses = 60_000;
        let f = figure16_experiment(&s);
        let canneal = f.rows.iter().find(|(w, _)| *w == "canneal").unwrap();
        let swaptions = f.rows.iter().find(|(w, _)| *w == "swaptions").unwrap();
        let idx_ideal = f.labels.iter().position(|l| l == "RM-Ideal").unwrap();
        // Capacity-sensitive canneal gains from the big LLC; swaptions
        // is indifferent.
        assert!(
            canneal.1[idx_ideal] < swaptions.1[idx_ideal] + 0.05,
            "canneal {} vs swaptions {}",
            canneal.1[idx_ideal],
            swaptions.1[idx_ideal]
        );
        assert!((swaptions.1[idx_ideal] - 1.0).abs() < 0.2);
    }

    #[test]
    fn figure14_attribution_partitions_execution_cycles() {
        let s = quick();
        let sweep = SimSweep::run(&s, &fig14_variants(), &[]);
        let table = figure14_attribution(&sweep, &s);
        assert_eq!(
            table.cells.len(),
            s.profiles().len() * fig14_variants().len()
        );
        assert_eq!(table.max_residual(), 0);
        for cell in &table.cells {
            let verify = table.component(cell, "pecc_verify").unwrap();
            let sts = table.component(cell, "sts_shift").unwrap();
            if cell.keys[1] == "Baseline" {
                assert_eq!(verify, 0, "{:?}", cell.keys);
            } else {
                assert!(verify > 0, "{:?}", cell.keys);
            }
            assert!(sts > 0, "{:?}", cell.keys);
            // Shifting never dominates the whole pipeline.
            assert!(
                table.component(cell, "core_other").unwrap() > 0,
                "{:?}",
                cell.keys
            );
        }
        assert!(render_figure14_attribution(&table).contains("core_other"));
    }

    #[test]
    fn protection_overhead_is_small() {
        let mut s = quick();
        s.accesses = 40_000;
        let f = figure16_experiment(&s);
        let overheads = protection_overhead_summary(&f);
        // Abstract anchors: adaptive ≈ 0.2 %, worst ≈ 0.5 %, p-ECC-O ≈ 2 %.
        let adaptive = overheads["RM p-ECC-S adaptive"];
        let o = overheads["RM p-ECC-O"];
        assert!(
            (0.0..0.05).contains(&adaptive),
            "adaptive overhead {adaptive}"
        );
        assert!(o >= adaptive, "O {o} vs adaptive {adaptive}");
        assert!(o < 0.20, "p-ECC-O overhead {o}");
    }
}
