//! Beyond-paper scheme × fault-model matrix: every protection scheme
//! (the paper's five plus the two deletion/insertion position codes)
//! crossed with every selectable fault process.
//!
//! Each cell combines three views that the per-figure drivers only
//! show in isolation:
//!
//! * **analytic reliability** — SDC/DUE MTTF from
//!   [`ReliabilityReport::with_rates`] under the fault model's own rate
//!   table ([`FaultModelChoice::analytic_rates`]), with the shift mix
//!   implied by the scheme's shift policy;
//! * **cost** — the Table 5 row for the scheme (detection energy and
//!   cell overhead), including the derived rows for the stream codecs;
//! * **sampled behaviour** — a short trace-driven simulation per cell,
//!   equal to [`Hierarchy::with_racetrack_faults`] on the cell's seed,
//!   tallying how many concrete shift outcomes the fault model drew and
//!   how many were position errors.
//!
//! Every cell replays the same trace, so the grid runs as shared passes
//! ([`run_shared`]), one per contiguous chunk of cells, fanned out
//! across the `rtm-par` pool. Every back end sees the same placements
//! under any chunking, sampling seeds derive from the settings seed and
//! the cell's grid index (never the worker schedule), and results fold
//! in strict grid order, so the matrix is bit-identical for any thread
//! count.
//!
//! [`Hierarchy::with_racetrack_faults`]: rtm_mem::hierarchy::Hierarchy::with_racetrack_faults

use rtm_controller::controller::ShiftPolicy;
use rtm_controller::safety::SafetyBudget;
use rtm_cost::overhead::ProtectionOverhead;
use rtm_mem::hierarchy::{run_shared, LaneLlc, LlcChoice, RtVariant};
use rtm_mem::ShiftBackEnd;
use rtm_model::analytic::Engine;
use rtm_reliability::accounting::{ReliabilityReport, ShiftMix};
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::fault::FaultModelChoice;

/// The paper's reference shift intensity: a 512-stripe line group at
/// ~10M group commands/s (the Fig. 12 operating point).
pub const PAPER_INTENSITY: f64 = 1.0e7 * 512.0;

/// The schemes the matrix can cross: every [`RtVariant`] with a Table 5
/// row, in [`RtVariant::ALL`] order (the `--scheme` vocabulary).
pub fn schemes() -> Vec<RtVariant> {
    RtVariant::ALL
        .into_iter()
        .filter(|v| v.cost_scheme().is_some())
        .collect()
}

/// The analytic shift-distance mix `scheme`'s policy induces at
/// `intensity` stripe shifts per second.
///
/// Step-by-step schemes only ever shift one step; safe-distance
/// schemes spread uniformly up to the distance the SECDED safety
/// budget allows (worst-case at the provisioning intensity, adaptive
/// at the actual one); unconstrained schemes spread over the full
/// 1..=7 inter-port range.
pub fn shift_mix(scheme: RtVariant, intensity: f64) -> ShiftMix {
    let (_, policy) = scheme.parts();
    let budget = SafetyBudget::paper_secded();
    match policy {
        ShiftPolicy::StepByStep => ShiftMix::single(1),
        ShiftPolicy::FixedSafe { worst_intensity_hz } => {
            let d = budget
                .safe_distance_at(worst_intensity_hz as f64)
                .unwrap_or(1);
            ShiftMix::uniform(1..=d.max(1))
        }
        ShiftPolicy::Adaptive => {
            let d = budget.safe_distance_at(intensity).unwrap_or(1);
            ShiftMix::uniform(1..=d.max(1))
        }
        ShiftPolicy::Unconstrained => ShiftMix::uniform(1..=7),
    }
}

/// Matrix parameters.
#[derive(Debug, Clone)]
pub struct MatrixSettings {
    /// Schemes to cross (rows), each with a Table 5 row.
    pub schemes: Vec<RtVariant>,
    /// Fault models to cross (columns).
    pub fault_models: Vec<FaultModelChoice>,
    /// Accesses driven per sampled cell.
    pub accesses: u64,
    /// RNG seed base (per-cell sampling seeds derive from it).
    pub seed: u64,
    /// Stripe shift intensity for the analytic reliability columns.
    pub intensity: f64,
    /// Workload profile driving the sampled simulation.
    pub workload: &'static str,
    /// Engine behind the `engine` fault model (alias fast path under
    /// analytic).
    pub engine: Engine,
}

impl MatrixSettings {
    /// Full matrix at repro fidelity.
    pub fn full() -> Self {
        Self {
            schemes: schemes(),
            fault_models: FaultModelChoice::ALL.to_vec(),
            accesses: 200_000,
            seed: 2015,
            intensity: PAPER_INTENSITY,
            workload: "canneal",
            engine: Engine::Analytic,
        }
    }

    /// Small settings for unit tests.
    pub fn quick() -> Self {
        Self {
            accesses: 5_000,
            ..Self::full()
        }
    }
}

/// One (scheme, fault model) cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Protection scheme (row).
    pub scheme: RtVariant,
    /// Fault process (column).
    pub fault_model: FaultModelChoice,
    /// Analytic SDC MTTF in seconds (infinite when the scheme never
    /// silently corrupts under this fault process).
    pub sdc_mttf_s: f64,
    /// Analytic DUE MTTF in seconds.
    pub due_mttf_s: f64,
    /// Analytic harmless corrections per second.
    pub corrections_per_s: f64,
    /// Table 5 detection energy per stripe, pJ.
    pub detect_energy_pj: f64,
    /// Table 5 cell (capacity) overhead fraction, `None` for STS.
    pub cell_overhead: Option<f64>,
    /// Concrete shift outcomes drawn by the sampled simulation.
    pub sampled_shifts: u64,
    /// Sampled outcomes that were position errors.
    pub observed_errors: u64,
    /// Execution cycles of the sampled simulation (for cross-checking
    /// determinism, not a performance claim).
    pub cycles: u64,
}

/// The full matrix: one cell per (scheme, fault model) pair in strict
/// row-major order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemeFaultMatrix {
    /// Cells in `schemes × fault_models` row-major order.
    pub cells: Vec<MatrixCell>,
}

impl SchemeFaultMatrix {
    /// Runs the matrix on the process-wide `rtm_par` pool.
    pub fn run(settings: &MatrixSettings) -> Self {
        Self::run_with_threads(settings, rtm_par::threads())
    }

    /// [`Self::run`] with an explicit worker count; results are
    /// bit-identical for any `threads` value.
    ///
    /// The row-major cell list splits into at most `threads` contiguous
    /// chunks, each one shared pass over the workload's trace with one
    /// sampled back end per cell.
    pub fn run_with_threads(settings: &MatrixSettings, threads: usize) -> Self {
        let profile = WorkloadProfile::by_name(settings.workload)
            .unwrap_or_else(|| panic!("unknown workload {:?}", settings.workload));
        let cells: Vec<(RtVariant, FaultModelChoice)> = settings
            .schemes
            .iter()
            .flat_map(|&s| settings.fault_models.iter().map(move |&f| (s, f)))
            .collect();
        let chunk = cells.len().div_ceil(threads.max(1)).max(1);
        let progress = rtm_obs::timer::Progress::new("matrix", cells.len() as u64, "cells");
        let matrix = rtm_par::parallel_fold_with(
            threads,
            cells.len().div_ceil(chunk),
            |k| {
                let first = k * chunk;
                let llcs: Vec<_> = (first..cells.len().min(first + chunk))
                    .map(|i| {
                        let (scheme, fault_model) = cells[i];
                        let (kind, policy) = scheme.parts();
                        // Sampled view: the chosen fault process draws
                        // every shift outcome. The seed is fixed by the
                        // grid index, so the cell is independent of the
                        // chunking and of worker scheduling.
                        let back = ShiftBackEnd::new(kind, policy, 1).with_fault_model(
                            fault_model,
                            settings.engine,
                            cell_seed(settings, i),
                        );
                        (LlcChoice::RacetrackUnprotected, LaneLlc::Racetrack(back))
                    })
                    .collect();
                let results = run_shared(llcs, &mut trace(settings, profile), settings.accesses);
                progress.tick(results.len() as u64);
                results
            },
            Self::default(),
            |matrix, k, results| {
                for (i, r) in (k * chunk..).zip(results) {
                    let (scheme, fault_model) = cells[i];
                    let (kind, _) = scheme.parts();
                    // Analytic view: the scheme's own shift mix against
                    // the fault model's rate table.
                    let mix = shift_mix(scheme, settings.intensity);
                    let report = ReliabilityReport::with_rates(
                        kind,
                        &mix,
                        settings.intensity,
                        &fault_model.analytic_rates(),
                    );
                    // Cost view: the Table 5 row.
                    let cost = ProtectionOverhead::table5(
                        scheme
                            .cost_scheme()
                            .expect("a matrix scheme has a Table 5 row"),
                    );
                    matrix.cells.push(MatrixCell {
                        scheme,
                        fault_model,
                        sdc_mttf_s: report.sdc_mttf().as_secs(),
                        due_mttf_s: report.due_mttf().as_secs(),
                        corrections_per_s: report.correction_rate_per_second,
                        detect_energy_pj: cost.detect_energy.value(),
                        cell_overhead: cost.cell_area_overhead,
                        sampled_shifts: r.llc.sampled_shifts,
                        observed_errors: r.llc.observed_errors,
                        cycles: r.cycles,
                    });
                }
            },
        );
        progress.finish();
        matrix
    }

    /// Tabular rows (header first) for rendering and CSV export.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = vec![vec![
            "scheme".to_string(),
            "fault model".to_string(),
            "SDC MTTF".to_string(),
            "DUE MTTF".to_string(),
            "corrections/s".to_string(),
            "detect pJ".to_string(),
            "cell ovh".to_string(),
            "sampled shifts".to_string(),
            "observed errors".to_string(),
        ]];
        for c in &self.cells {
            rows.push(vec![
                c.scheme.name().to_string(),
                c.fault_model.name().to_string(),
                fmt_mttf(c.sdc_mttf_s),
                fmt_mttf(c.due_mttf_s),
                format!("{:.3e}", c.corrections_per_s),
                format!("{:.2}", c.detect_energy_pj),
                c.cell_overhead
                    .map_or_else(|| "n/a".to_string(), |o| format!("{:.1}%", o * 100.0)),
                c.sampled_shifts.to_string(),
                c.observed_errors.to_string(),
            ]);
        }
        rows
    }

    /// Renders the matrix as an aligned text table.
    pub fn render(&self) -> String {
        super::render_table(&self.rows())
    }
}

/// The fault-sampling seed of the cell at `index` in row-major order.
fn cell_seed(settings: &MatrixSettings, index: usize) -> u64 {
    rtm_util::rng::derive_seed(settings.seed, 0x3A78_0000 + index as u64)
}

/// The trace every cell replays.
fn trace(settings: &MatrixSettings, profile: WorkloadProfile) -> TraceGenerator {
    TraceGenerator::new(
        profile,
        rtm_util::rng::derive_seed(settings.seed, 0x3A78_8000),
    )
}

/// Formats an MTTF in seconds at human scale (years above one year,
/// seconds in scientific notation below, `inf` when the failure mode
/// never fires).
fn fmt_mttf(secs: f64) -> String {
    const YEAR: f64 = rtm_util::units::SECONDS_PER_YEAR;
    if secs.is_infinite() {
        "inf".to_string()
    } else if secs >= YEAR {
        format!("{:.2e} y", secs / YEAR)
    } else {
        format!("{:.2e} s", secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_mem::hierarchy::Hierarchy;

    fn tiny() -> MatrixSettings {
        let mut s = MatrixSettings::quick();
        s.accesses = 2_000;
        s
    }

    #[test]
    fn matrix_covers_every_cell_in_order() {
        let s = tiny();
        let m = SchemeFaultMatrix::run(&s);
        assert_eq!(m.cells.len(), 7 * 3);
        // Row-major order: the first three cells are STS under each
        // fault model, in FaultModelChoice::ALL order.
        assert_eq!(m.cells[0].scheme, RtVariant::Baseline);
        assert_eq!(m.cells[0].fault_model, FaultModelChoice::Engine);
        assert_eq!(m.cells[2].fault_model, FaultModelChoice::Pinning);
        assert_eq!(m.cells[3].scheme, RtVariant::Secded);
        // Every sampled cell actually drew outcomes.
        for c in &m.cells {
            assert!(
                c.sampled_shifts > 0,
                "{}/{} sampled nothing",
                c.scheme.name(),
                c.fault_model.name()
            );
        }
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let mut s = tiny();
        s.schemes = vec![RtVariant::Baseline, RtVariant::Secded, RtVariant::Vahid2di];
        let base = SchemeFaultMatrix::run_with_threads(&s, 1);
        for threads in [2usize, 8] {
            let alt = SchemeFaultMatrix::run_with_threads(&s, threads);
            assert_eq!(base, alt, "threads={threads}");
        }
    }

    #[test]
    fn shared_matrix_matches_per_cell_reference() {
        // The matrix serves its cells from shared passes; each cell must
        // equal the standalone hierarchy of that cell, with the same
        // trace and sampling seed, under any chunking.
        let s = tiny();
        let profile = WorkloadProfile::by_name(s.workload).unwrap();
        for threads in [1, 4] {
            let m = SchemeFaultMatrix::run_with_threads(&s, threads);
            for (i, c) in m.cells.iter().enumerate() {
                let (kind, policy) = c.scheme.parts();
                let r = Hierarchy::with_racetrack_faults(
                    kind,
                    policy,
                    c.fault_model,
                    s.engine,
                    cell_seed(&s, i),
                )
                .run(&mut trace(&s, profile), s.accesses);
                let name = format!(
                    "{}/{} threads={threads}",
                    c.scheme.name(),
                    c.fault_model.name()
                );
                assert_eq!(c.sampled_shifts, r.llc.sampled_shifts, "{name}");
                assert_eq!(c.observed_errors, r.llc.observed_errors, "{name}");
                assert_eq!(c.cycles, r.cycles, "{name}");
            }
        }
    }

    #[test]
    fn stream_codecs_never_silently_corrupt() {
        // The deletion/insertion codes classify every |e| <= 2 as a
        // correction and everything beyond as detected — no aliasing, so
        // the analytic SDC MTTF is infinite under every fault model.
        let mut s = tiny();
        s.schemes = vec![RtVariant::CheeKiah, RtVariant::Vahid2di];
        let m = SchemeFaultMatrix::run(&s);
        for c in &m.cells {
            assert!(c.sdc_mttf_s.is_infinite(), "{} aliased", c.scheme.name());
            assert!(c.corrections_per_s > 0.0);
        }
    }

    #[test]
    fn pinning_faults_are_single_step_only() {
        // The pinning rate table concentrates all mass at k = 1, which
        // SECDED corrects — both failure modes vanish — while the
        // unprotected STS row turns that same mass into pure SDC.
        let mut s = tiny();
        s.schemes = vec![RtVariant::Baseline, RtVariant::Secded];
        s.fault_models = vec![FaultModelChoice::Pinning];
        let m = SchemeFaultMatrix::run(&s);
        let sts = &m.cells[0];
        let pecc = &m.cells[1];
        assert!(sts.sdc_mttf_s.is_finite());
        assert!(pecc.sdc_mttf_s.is_infinite());
        assert!(pecc.due_mttf_s.is_infinite());
        assert!(pecc.corrections_per_s > 0.0);
    }

    #[test]
    fn shift_mixes_follow_policies() {
        let i = PAPER_INTENSITY;
        assert_eq!(shift_mix(RtVariant::SecdedO, i), ShiftMix::single(1));
        // Unconstrained spans the inter-port range.
        assert!((shift_mix(RtVariant::Baseline, i).mean_distance() - 4.0).abs() < 1e-12);
        // Safe-distance mixes never exceed the unconstrained mean.
        assert!(shift_mix(RtVariant::SecdedSafeWorst, i).mean_distance() <= 4.0);
        assert!(shift_mix(RtVariant::SecdedSafeAdaptive, i).mean_distance() <= 4.0);
    }

    #[test]
    fn render_has_header_and_all_cells() {
        let mut s = tiny();
        s.schemes = vec![RtVariant::Baseline];
        s.fault_models = vec![FaultModelChoice::Calibrated];
        let m = SchemeFaultMatrix::run(&s);
        let text = m.render();
        assert!(text.contains("scheme"));
        assert!(text.contains("sts"));
        assert!(text.contains("calibrated"));
        assert_eq!(text.lines().count(), 3);
    }
}
