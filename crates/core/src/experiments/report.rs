//! A self-contained paper-vs-measured markdown report — the live
//! counterpart of the repository's EXPERIMENTS.md.

use super::energy_exp::{energy_summary, figure17_from, figure18_from};
use super::performance::{figure14_from, figure16_from, protection_overhead_summary};
use super::reliability_exp::{figure10_from, figure11_from};
use super::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::hierarchy::LlcChoice;
use rtm_util::units::format_mttf;

/// One checked claim: the paper's number next to ours.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is being compared.
    pub what: String,
    /// The paper's figure (as prose).
    pub paper: String,
    /// Our measured figure.
    pub measured: String,
    /// Whether the measured value keeps the paper's qualitative claim.
    pub holds: bool,
}

/// The full live report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Individual claims, in presentation order.
    pub claims: Vec<Claim>,
}

impl Report {
    /// Fraction of claims that hold.
    pub fn pass_rate(&self) -> f64 {
        if self.claims.is_empty() {
            return 1.0;
        }
        self.claims.iter().filter(|c| c.holds).count() as f64 / self.claims.len() as f64
    }

    /// Renders the report as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "# Live reproduction report\n\n\
             | claim | paper | measured | holds |\n|---|---|---|---|\n",
        );
        for c in &self.claims {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                c.what,
                c.paper,
                c.measured,
                if c.holds { "yes" } else { "NO" }
            ));
        }
        out.push_str(&format!(
            "\n{} of {} claims hold ({:.0}%).\n",
            self.claims.iter().filter(|c| c.holds).count(),
            self.claims.len(),
            self.pass_rate() * 100.0
        ));
        out
    }
}

/// Runs one sweep of every racetrack variant and every LLC choice and
/// distils the paper's headline claims.
pub fn live_report(settings: &SweepSettings) -> Report {
    let sweep = SimSweep::run(settings, &RtVariant::ALL, &LlcChoice::ALL);

    let fig10 = figure10_from(&sweep, settings);
    let fig11 = figure11_from(&sweep, settings);
    let fig14 = figure14_from(&sweep, settings);
    let fig16 = figure16_from(&sweep, settings);
    let fig17 = figure17_from(&sweep, settings);
    let fig18 = figure18_from(&sweep, settings);

    let geo = |fig: &super::reliability_exp::MttfFigure, label: &str| {
        fig.series
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.geomean())
            .expect("series present")
    };

    let mut claims = Vec::new();
    let baseline_sdc = geo(&fig10, "Baseline");
    claims.push(Claim {
        what: "unprotected SDC MTTF is microseconds".into(),
        paper: "1.33 µs".into(),
        measured: format_mttf(baseline_sdc),
        holds: baseline_sdc.as_secs() < 1e-3,
    });
    let secded_sdc = geo(&fig10, "SECDED p-ECC");
    claims.push(Claim {
        what: "SECDED p-ECC SDC MTTF exceeds 1000 years".into(),
        paper: "> 1000 years".into(),
        measured: format_mttf(secded_sdc),
        holds: secded_sdc.as_years() > 1000.0,
    });
    let adaptive_due = geo(&fig11, "SECDED p-ECC-S adaptive");
    claims.push(Claim {
        what: "adaptive p-ECC-S DUE MTTF exceeds the 10-year target".into(),
        paper: "69 years".into(),
        measured: format_mttf(adaptive_due),
        holds: adaptive_due.as_years() > 10.0,
    });
    let worst_due = geo(&fig11, "SECDED p-ECC-S worst");
    claims.push(Claim {
        what: "worst-case policy is more reliable than adaptive".into(),
        paper: "532 vs 69 years".into(),
        measured: format!(
            "{} vs {}",
            format_mttf(worst_due),
            format_mttf(adaptive_due)
        ),
        holds: worst_due.as_secs() > adaptive_due.as_secs(),
    });
    let o_latency = fig14.mean_of("SECDED p-ECC-O").unwrap_or(f64::NAN);
    claims.push(Claim {
        what: "p-ECC-O costs about 2x shift latency".into(),
        paper: "~2x".into(),
        measured: format!("{o_latency:.2}x"),
        holds: (1.5..4.0).contains(&o_latency),
    });
    let overheads = protection_overhead_summary(&fig16);
    let adaptive_exec = overheads
        .get("RM p-ECC-S adaptive")
        .copied()
        .unwrap_or(f64::NAN);
    claims.push(Claim {
        what: "adaptive execution-time overhead is well under 2%".into(),
        paper: "0.2%".into(),
        measured: format!("{:+.2}%", adaptive_exec * 100.0),
        holds: adaptive_exec < 0.02,
    });
    let energy = energy_summary(&fig17, &fig18);
    let stt_total = energy
        .get("STT-RAM total-energy reduction vs SRAM")
        .copied()
        .unwrap_or(f64::NAN);
    claims.push(Claim {
        what: "NVM LLCs halve total energy vs SRAM".into(),
        paper: "53.1% (STT-RAM)".into(),
        measured: format!("{:.1}%", stt_total * 100.0),
        holds: stt_total > 0.4,
    });
    let adaptive_dyn = energy
        .get("RM p-ECC-S adaptive dynamic overhead")
        .copied()
        .unwrap_or(f64::NAN);
    claims.push(Claim {
        what: "protection costs significant LLC dynamic energy".into(),
        paper: "+20% (adaptive)".into(),
        measured: format!("{:+.1}%", adaptive_dyn * 100.0),
        holds: adaptive_dyn > 0.05,
    });
    Report { claims }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_holds_every_claim() {
        let mut s = SweepSettings::quick();
        s.accesses = 40_000;
        let report = live_report(&s);
        assert_eq!(report.claims.len(), 8);
        for c in &report.claims {
            assert!(
                c.holds,
                "claim failed: {} (measured {})",
                c.what, c.measured
            );
        }
        assert_eq!(report.pass_rate(), 1.0);
        let md = report.to_markdown();
        assert!(md.contains("| claim |"));
        assert!(md.contains("8 of 8"));
    }
}
