//! Experiment drivers — one per table/figure of the paper's evaluation.
//!
//! | module | reproduces |
//! |---|---|
//! | [`motivation`] | Fig. 1 (MTTF vs error rate) |
//! | [`errormodel`] | Fig. 4 (position-error PDFs), Table 2 (rates) |
//! | [`design`] | Fig. 7 (port area), Table 3 (safe distance/sequences), Table 5 (overhead), Fig. 13 (area sensitivity) |
//! | [`reliability_exp`] | Fig. 10 (SDC MTTF), Fig. 11 (DUE MTTF), Fig. 12 (MTTF sensitivity) |
//! | [`performance`] | Fig. 14 (shift latency), Fig. 15 (latency sensitivity), Fig. 16 (execution time) |
//! | [`energy_exp`] | Fig. 17 (LLC dynamic energy), Fig. 18 (total energy) |
//! | [`ablation`] | drive-ratio, variation-scale, strength and STS ablations the paper discusses in prose |
//! | [`serving`] | beyond-paper serving-layer study: scheduling policy × workload × protection scheme |
//! | [`frontdoor`] | beyond-paper front-door study: ≥10k-tenant admission control × scheduling policy |
//! | [`matrix`] | beyond-paper scheme × fault-model matrix: reliability, cost and sampled behaviour per cell |
//!
//! Every driver returns typed rows plus a rendered text table so the
//! `repro` binary and EXPERIMENTS.md stay in lock-step with the code.

pub mod ablation;
pub mod design;
pub mod energy_exp;
pub mod errormodel;
pub mod frontdoor;
pub mod matrix;
pub mod motivation;
pub mod performance;
pub mod reliability_exp;
pub mod report;
pub mod serving;

mod sweep;

pub use sweep::{RtVariant, SimSweep, SweepSettings};

// The CSV serialiser lives in rtm-obs (its exporters need it too);
// re-exported here so every experiment driver keeps one call site.
pub use rtm_obs::export::to_csv;

/// Renders rows of pre-formatted cells as an aligned text table.
///
/// The first row is treated as the header and separated by a rule.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, r) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, w) in widths.iter().enumerate() {
            let cell = r.get(i).map(String::as_str).unwrap_or("");
            let pad = w - cell.chars().count();
            line.push_str(cell);
            line.push_str(&" ".repeat(pad));
            if i + 1 < widths.len() {
                line.push_str("  ");
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Runs `emit` with the process-wide metric store switched on and
/// returns its snapshot, leaving the store off and empty. One lock
/// keeps the emission tests' windows apart; other tests in the binary
/// may record unlabeled metrics meanwhile, so callers read labeled
/// entries only.
#[cfg(test)]
fn record_into_global_store(emit: impl FnOnce()) -> rtm_obs::metrics::RegistrySnapshot {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = rtm_obs::global().registry();
    registry.reset();
    registry.set_enabled(true);
    emit();
    let snap = registry.snapshot();
    registry.set_enabled(false);
    registry.reset();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render_table(&[
            vec!["a".into(), "long header".into()],
            vec!["wide cell".into(), "x".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("wide cell"));
    }

    #[test]
    fn render_empty_is_empty() {
        assert_eq!(render_table(&[]), "");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let rows = vec![
            vec!["a".into(), "b,c".into()],
            vec!["say \"hi\"".into(), "plain".into()],
        ];
        let csv = to_csv(&rows);
        assert_eq!(csv, "a,\"b,c\"\n\"say \"\"hi\"\"\",plain\n");
    }
}
