//! Figs. 17-18 — LLC dynamic energy and total energy benefits.

use super::performance::NormalisedFigure;
use super::sweep::{SimSweep, SweepSettings};
use rtm_mem::hierarchy::LlcChoice;
use std::collections::BTreeMap;

/// Runs Fig. 17: LLC dynamic energy across the seven designs,
/// normalised to SRAM.
pub fn figure17_experiment(settings: &SweepSettings) -> NormalisedFigure {
    let sweep = SimSweep::run(settings, &[], &LlcChoice::ALL);
    figure17_from(&sweep, settings)
}

/// Fig. 17 from a precomputed choice sweep over [`LlcChoice::ALL`].
pub fn figure17_from(sweep: &SimSweep, settings: &SweepSettings) -> NormalisedFigure {
    energy_figure(
        sweep,
        settings,
        "Figure 17: LLC dynamic energy (incl. shift and p-ECC checks)",
        |r| r.llc_dynamic_energy().value(),
    )
}

/// Runs Fig. 18: total energy (LLC dynamic + leakage + DRAM dynamic),
/// normalised to SRAM.
pub fn figure18_experiment(settings: &SweepSettings) -> NormalisedFigure {
    let sweep = SimSweep::run(settings, &[], &LlcChoice::ALL);
    figure18_from(&sweep, settings)
}

/// Fig. 18 from a precomputed choice sweep over [`LlcChoice::ALL`].
pub fn figure18_from(sweep: &SimSweep, settings: &SweepSettings) -> NormalisedFigure {
    energy_figure(
        sweep,
        settings,
        "Figure 18: total energy consumption benefits",
        |r| r.system_energy().value(),
    )
}

fn energy_figure(
    sweep: &SimSweep,
    settings: &SweepSettings,
    title: &str,
    metric: impl Fn(&rtm_mem::hierarchy::SimResult) -> f64,
) -> NormalisedFigure {
    let choices = LlcChoice::ALL;
    let labels: Vec<String> = choices.iter().map(|c| c.to_string()).collect();
    let rows = settings
        .profiles()
        .iter()
        .map(|p| {
            let per = &sweep.by_choice[p.name];
            let base = metric(&per["SRAM"]).max(f64::MIN_POSITIVE);
            let vals = choices
                .iter()
                .map(|c| metric(&per[&c.to_string()]) / base)
                .collect();
            (p.name, vals)
        })
        .collect();
    NormalisedFigure {
        title: title.to_string(),
        baseline: "SRAM".to_string(),
        labels,
        rows,
    }
}

/// The paper's Fig. 17/18 headline deltas: dynamic-energy overhead of
/// each protected design relative to the unprotected racetrack LLC,
/// and total-energy reduction versus SRAM.
pub fn energy_summary(fig17: &NormalisedFigure, fig18: &NormalisedFigure) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(base) = fig17.mean_of("RM w/o p-ECC") {
        for label in ["RM p-ECC-O", "RM p-ECC-S worst", "RM p-ECC-S adaptive"] {
            if let Some(v) = fig17.mean_of(label) {
                out.insert(format!("{label} dynamic overhead"), v / base - 1.0);
            }
        }
    }
    for label in ["STT-RAM", "RM p-ECC-O", "RM p-ECC-S adaptive"] {
        if let Some(v) = fig18.mean_of(label) {
            out.insert(format!("{label} total-energy reduction vs SRAM"), 1.0 - v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepSettings {
        let mut s = SweepSettings::quick();
        s.accesses = 30_000;
        s
    }

    #[test]
    fn figure17_protection_costs_dynamic_energy() {
        let f = figure17_experiment(&quick());
        let bare = f.mean_of("RM w/o p-ECC").unwrap();
        let o = f.mean_of("RM p-ECC-O").unwrap();
        let adaptive = f.mean_of("RM p-ECC-S adaptive").unwrap();
        // Fig. 17: p-ECC-O pays the most (checks on every 1-step shift);
        // the safe-distance designs pay less.
        assert!(o > bare, "O {o} vs bare {bare}");
        assert!(adaptive > bare);
        assert!(o > adaptive);
        assert!(f.render().contains("Figure 17"));
    }

    #[test]
    fn figure18_racetrack_retains_benefit_over_sram() {
        let f = figure18_experiment(&quick());
        // Fig. 18: STT-RAM and RM cut total energy substantially versus
        // the leaky SRAM LLC even after protection overhead.
        let stt = f.mean_of("STT-RAM").unwrap();
        let adaptive = f.mean_of("RM p-ECC-S adaptive").unwrap();
        assert!(stt < 0.9, "STT-RAM ratio {stt}");
        assert!(adaptive < 0.9, "RM adaptive ratio {adaptive}");
    }

    #[test]
    fn summary_reports_expected_keys() {
        let s = quick();
        let f17 = figure17_experiment(&s);
        let f18 = figure18_experiment(&s);
        let sum = energy_summary(&f17, &f18);
        assert!(sum.contains_key("RM p-ECC-O dynamic overhead"));
        assert!(sum.contains_key("STT-RAM total-energy reduction vs SRAM"));
        // Protected designs cost more dynamic energy, not less.
        assert!(sum["RM p-ECC-O dynamic overhead"] > 0.0);
    }
}
