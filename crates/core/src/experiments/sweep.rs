//! Shared simulation sweep machinery: run every (workload × LLC
//! configuration) pair once and let the figure drivers slice the
//! results.
//!
//! The sweep fans out across the `rtm-par` pool one task per workload,
//! whose cells — every named LLC choice, or every racetrack variant —
//! share a single pass over the trace
//! ([`rtm_mem::hierarchy::run_shared`]). Each workload's trace seed
//! derives from its name alone (never the worker count or schedule),
//! and results are folded into the sweep in strict grid order as they
//! stream back — per-run gauges record at fold time, never from a
//! worker thread — so sweep output and metrics are identical for any
//! `--threads` setting.

use rtm_controller::controller::ShiftPolicy;
use rtm_mem::hierarchy::{run_shared, LaneLlc, LlcChoice, SimResult};
use rtm_mem::ShiftBackEnd;
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::fault::FaultModelChoice;
use std::collections::BTreeMap;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepSettings {
    /// Accesses driven per (workload, configuration) pair.
    pub accesses: u64,
    /// RNG seed base (per-workload seeds derive from it).
    pub seed: u64,
    /// Workload subset (`None` = all twelve).
    pub workloads: Option<Vec<&'static str>>,
    /// When set, racetrack variant cells additionally sample one
    /// concrete outcome per planned sub-shift through the engine's
    /// fault model (alias fast path for
    /// [`rtm_model::analytic::Engine::Analytic`]). Sampling seeds
    /// derive from `seed` and the cell's grid index, never the worker
    /// schedule, so sweep output stays bit-identical for any thread
    /// count.
    pub sample_engine: Option<rtm_model::analytic::Engine>,
    /// Which fault process drives the sampled outcomes (the
    /// `--fault-model` axis). Only observed when `sample_engine` is
    /// set; the statistical accounting always uses the calibrated
    /// rates.
    pub fault_model: FaultModelChoice,
}

impl SweepSettings {
    /// Full-fidelity settings for the repro binaries: traces long
    /// enough that capacity-sensitive working sets overflow the smaller
    /// LLCs (the effect Figs. 16-18 hinge on).
    pub fn full() -> Self {
        Self {
            accesses: 2_000_000,
            seed: 2015,
            workloads: None,
            sample_engine: None,
            fault_model: FaultModelChoice::Engine,
        }
    }

    /// Small settings for unit tests.
    pub fn quick() -> Self {
        Self {
            accesses: 25_000,
            seed: 2015,
            workloads: Some(vec!["canneal", "swaptions", "streamcluster"]),
            sample_engine: None,
            fault_model: FaultModelChoice::Engine,
        }
    }

    /// The workload profiles this sweep covers, in display order.
    pub fn profiles(&self) -> Vec<WorkloadProfile> {
        let all = WorkloadProfile::parsec();
        match &self.workloads {
            None => all.to_vec(),
            Some(names) => names
                .iter()
                .filter_map(|n| WorkloadProfile::by_name(n))
                .collect(),
        }
    }
}

/// A racetrack LLC variant beyond the named presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RtVariant {
    /// Unprotected, unconstrained distances (the baseline).
    Baseline,
    /// SED p-ECC (detect-only), unconstrained distances.
    Sed,
    /// SECDED p-ECC, unconstrained distances.
    Secded,
    /// SECDED p-ECC-O (1-step shift-and-write).
    SecdedO,
    /// SECDED p-ECC with the worst-case safe distance.
    SecdedSafeWorst,
    /// SECDED p-ECC with the adaptive safe distance.
    SecdedSafeAdaptive,
    /// Chee–Kiah multi-look code, unconstrained distances.
    CheeKiah,
    /// Vahid two-deletion/insertion code, unconstrained distances.
    Vahid2di,
}

impl RtVariant {
    /// All variants in the paper's legend order.
    pub const ALL: [RtVariant; 8] = [
        RtVariant::Baseline,
        RtVariant::Sed,
        RtVariant::Secded,
        RtVariant::SecdedO,
        RtVariant::SecdedSafeWorst,
        RtVariant::SecdedSafeAdaptive,
        RtVariant::CheeKiah,
        RtVariant::Vahid2di,
    ];

    /// The (protection, policy) pair this variant simulates.
    pub fn parts(&self) -> (ProtectionKind, ShiftPolicy) {
        match self {
            RtVariant::Baseline => (ProtectionKind::None, ShiftPolicy::Unconstrained),
            RtVariant::Sed => (ProtectionKind::Sed, ShiftPolicy::Unconstrained),
            RtVariant::Secded => (ProtectionKind::SECDED, ShiftPolicy::Unconstrained),
            RtVariant::SecdedO => (ProtectionKind::SECDED_O, ShiftPolicy::StepByStep),
            RtVariant::SecdedSafeWorst => (ProtectionKind::SECDED, ShiftPolicy::WORST_CASE),
            RtVariant::SecdedSafeAdaptive => (ProtectionKind::SECDED, ShiftPolicy::Adaptive),
            RtVariant::CheeKiah => (ProtectionKind::CHEE_KIAH, ShiftPolicy::Unconstrained),
            RtVariant::Vahid2di => (ProtectionKind::VAHID_2DI, ShiftPolicy::Unconstrained),
        }
    }

    /// Paper legend label.
    pub fn label(&self) -> &'static str {
        match self {
            RtVariant::Baseline => "Baseline",
            RtVariant::Sed => "SED p-ECC",
            RtVariant::Secded => "SECDED p-ECC",
            RtVariant::SecdedO => "SECDED p-ECC-O",
            RtVariant::SecdedSafeWorst => "SECDED p-ECC-S worst",
            RtVariant::SecdedSafeAdaptive => "SECDED p-ECC-S adaptive",
            RtVariant::CheeKiah => "Chee-Kiah",
            RtVariant::Vahid2di => "Vahid 2-DI",
        }
    }
}

/// Results of a sweep, keyed by workload name.
#[derive(Debug, Clone, Default)]
pub struct SimSweep {
    /// Per-workload results for named LLC choices (Figs. 16-18).
    pub by_choice: BTreeMap<&'static str, BTreeMap<String, SimResult>>,
    /// Per-workload results for racetrack variants (Figs. 10/11/14).
    pub by_variant: BTreeMap<&'static str, BTreeMap<String, SimResult>>,
}

impl SimSweep {
    /// Runs every workload against the named LLC choices on the
    /// process-wide `rtm_par` pool.
    pub fn run_choices(settings: &SweepSettings, choices: &[LlcChoice]) -> Self {
        Self::run_choices_with_threads(settings, choices, rtm_par::threads())
    }

    /// [`Self::run_choices`] with an explicit worker count; results
    /// are identical for any `threads` value.
    pub fn run_choices_with_threads(
        settings: &SweepSettings,
        choices: &[LlcChoice],
        threads: usize,
    ) -> Self {
        let labels: Vec<String> = choices.iter().map(LlcChoice::to_string).collect();
        let by_choice = run_grid(settings, threads, "sweep(choices)", &labels, |_| {
            choices.iter().map(|&c| (c, c.llc())).collect()
        });
        Self {
            by_choice,
            ..Self::default()
        }
    }

    /// Runs every workload against racetrack protection variants on
    /// the process-wide `rtm_par` pool.
    pub fn run_variants(settings: &SweepSettings, variants: &[RtVariant]) -> Self {
        Self::run_variants_with_threads(settings, variants, rtm_par::threads())
    }

    /// [`Self::run_variants`] with an explicit worker count; results
    /// are identical for any `threads` value.
    pub fn run_variants_with_threads(
        settings: &SweepSettings,
        variants: &[RtVariant],
        threads: usize,
    ) -> Self {
        let labels: Vec<String> = variants.iter().map(|v| v.label().to_string()).collect();
        let by_variant = run_grid(settings, threads, "sweep(variants)", &labels, |w| {
            variants
                .iter()
                .enumerate()
                .map(|(v, variant)| {
                    let (kind, policy) = variant.parts();
                    let back = ShiftBackEnd::new(kind, policy, 1);
                    let back = match settings.sample_engine {
                        // Sampling seed from (sweep seed, grid index):
                        // fixed by the cell layout, independent of
                        // worker scheduling.
                        Some(engine) => back.with_fault_model(
                            settings.fault_model,
                            engine,
                            variant_seed(settings, w * variants.len() + v),
                        ),
                        None => back,
                    };
                    (LlcChoice::RacetrackUnprotected, LaneLlc::Racetrack(back))
                })
                .collect()
        });
        Self {
            by_variant,
            ..Self::default()
        }
    }
}

/// Per-workload results keyed by cell label.
type Grid = BTreeMap<&'static str, BTreeMap<String, SimResult>>;

/// Runs one task per workload on `threads` workers: a single pass over
/// the workload's trace serves every LLC `llcs(w)` builds for workload
/// `w` (one per entry of `labels`). Results fold into the grid in strict
/// grid order as they stream back, so no worker-count-sized Vec of
/// results accumulates and gauges stay deterministic for any `threads`
/// value.
fn run_grid(
    settings: &SweepSettings,
    threads: usize,
    what: &str,
    labels: &[String],
    llcs: impl Fn(usize) -> Vec<(LlcChoice, LaneLlc)> + Sync,
) -> Grid {
    let profiles = settings.profiles();
    let progress =
        rtm_obs::timer::Progress::new(what, (profiles.len() * labels.len()) as u64, "cells");
    let grid = rtm_par::parallel_fold_with(
        threads,
        profiles.len(),
        |w| {
            let results = run_shared(
                llcs(w),
                &mut trace(settings, profiles[w]),
                settings.accesses,
            );
            progress.tick(labels.len() as u64);
            results
        },
        Grid::new(),
        |grid, w, results| {
            for (label, r) in labels.iter().zip(results) {
                r.record_metrics();
                grid.entry(profiles[w].name)
                    .or_default()
                    .insert(label.clone(), r);
            }
        },
    );
    progress.finish();
    grid
}

/// The trace of workload `p`, seeded from the sweep seed and its name.
fn trace(settings: &SweepSettings, p: WorkloadProfile) -> TraceGenerator {
    TraceGenerator::new(
        p,
        rtm_util::rng::derive_seed(settings.seed, seed_of(p.name)),
    )
}

/// The fault-sampling seed of the variant cell at `index` in the
/// (workload × variant) grid.
fn variant_seed(settings: &SweepSettings, index: usize) -> u64 {
    rtm_util::rng::derive_seed(settings.seed, 0x5EED_0000 + index as u64)
}

fn seed_of(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_mem::hierarchy::Hierarchy;

    #[test]
    fn quick_sweep_covers_requested_matrix() {
        let s = SweepSettings::quick();
        let sweep =
            SimSweep::run_choices(&s, &[LlcChoice::SramBaseline, LlcChoice::RacetrackIdeal]);
        assert_eq!(sweep.by_choice.len(), 3);
        for per in sweep.by_choice.values() {
            assert_eq!(per.len(), 2);
            for r in per.values() {
                assert_eq!(r.accesses, s.accesses);
            }
        }
    }

    #[test]
    fn variant_sweep_runs_custom_racetracks() {
        let mut s = SweepSettings::quick();
        s.workloads = Some(vec!["x264"]);
        let sweep = SimSweep::run_variants(&s, &[RtVariant::Baseline, RtVariant::Sed]);
        let per = &sweep.by_variant["x264"];
        assert!(per.contains_key("Baseline"));
        assert!(per.contains_key("SED p-ECC"));
        // SED detects (DUE mass); baseline does not.
        assert!(per["SED p-ECC"].llc.expected_dues > 0.0);
        assert_eq!(per["Baseline"].llc.expected_dues, 0.0);
    }

    #[test]
    fn same_settings_same_results() {
        let mut s = SweepSettings::quick();
        s.workloads = Some(vec!["vips"]);
        s.accesses = 5_000;
        let a = SimSweep::run_choices(&s, &[LlcChoice::SttRam]);
        let b = SimSweep::run_choices(&s, &[LlcChoice::SttRam]);
        assert_eq!(
            a.by_choice["vips"]["STT-RAM"].cycles,
            b.by_choice["vips"]["STT-RAM"].cycles
        );
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        let choices = [LlcChoice::SramBaseline, LlcChoice::RacetrackIdeal];
        let base = SimSweep::run_choices_with_threads(&s, &choices, 1);
        for threads in [2usize, 8] {
            let alt = SimSweep::run_choices_with_threads(&s, &choices, threads);
            assert_eq!(base.by_choice, alt.by_choice, "threads={threads}");
        }
        let variants = [RtVariant::Baseline, RtVariant::SecdedSafeAdaptive];
        let vbase = SimSweep::run_variants_with_threads(&s, &variants, 1);
        let valt = SimSweep::run_variants_with_threads(&s, &variants, 8);
        assert_eq!(vbase.by_variant, valt.by_variant);
    }

    #[test]
    fn streamed_sweep_matches_collected_reference() {
        // The shared pass and the streaming fold must reproduce the
        // per-cell pipeline bit-for-bit: run every cell as its own
        // hierarchy through `parallel_map_with` + sequential merge and
        // compare against the streamed sweep at several worker counts.
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        s.workloads = Some(vec!["canneal", "x264"]);
        let choices = LlcChoice::ALL;
        let profiles = s.profiles();
        let cells: Vec<(WorkloadProfile, LlcChoice)> = profiles
            .iter()
            .flat_map(|&p| choices.iter().map(move |&c| (p, c)))
            .collect();
        let results = rtm_par::parallel_map_with(4, cells.len(), |i| {
            let (p, c) = cells[i];
            Hierarchy::new(c).run(&mut trace(&s, p), s.accesses)
        });
        let mut collected: BTreeMap<&'static str, BTreeMap<String, SimResult>> = BTreeMap::new();
        for ((p, c), r) in cells.into_iter().zip(results) {
            collected
                .entry(p.name)
                .or_default()
                .insert(c.to_string(), r);
        }
        for threads in [1usize, 2, 8] {
            let streamed = SimSweep::run_choices_with_threads(&s, &choices, threads);
            assert_eq!(streamed.by_choice, collected, "threads={threads}");
        }
    }

    #[test]
    fn shared_variant_sweep_matches_per_cell_reference() {
        // The variant sweep serves every variant from one pass per
        // workload; each cell must equal the standalone hierarchy of
        // that cell, with the same trace and sampling seed.
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        s.workloads = Some(vec!["canneal", "x264"]);
        for engine in [None, Some(rtm_model::analytic::Engine::Analytic)] {
            s.sample_engine = engine;
            let sweep = SimSweep::run_variants_with_threads(&s, &RtVariant::ALL, 2);
            let cells = s
                .profiles()
                .into_iter()
                .flat_map(|p| RtVariant::ALL.map(|v| (p, v)));
            for (i, (p, v)) in cells.enumerate() {
                let (kind, policy) = v.parts();
                let mut sys = match engine {
                    Some(engine) => Hierarchy::with_racetrack_faults(
                        kind,
                        policy,
                        s.fault_model,
                        engine,
                        variant_seed(&s, i),
                    ),
                    None => Hierarchy::with_racetrack(kind, policy),
                };
                let reference = sys.run(&mut trace(&s, p), s.accesses);
                assert_eq!(
                    sweep.by_variant[p.name][v.label()],
                    reference,
                    "{} {} engine {engine:?}",
                    p.name,
                    v.label()
                );
            }
        }
    }

    #[test]
    fn sampled_sweeps_are_thread_count_invariant() {
        // PR 3 extension of the determinism matrix: engine-sampled
        // variant sweeps must stay bit-identical across 1/2/8 workers.
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        s.workloads = Some(vec!["canneal", "x264"]);
        s.sample_engine = Some(rtm_model::analytic::Engine::Analytic);
        let variants = [RtVariant::Baseline, RtVariant::SecdedSafeAdaptive];
        let base = SimSweep::run_variants_with_threads(&s, &variants, 1);
        for threads in [2usize, 8] {
            let alt = SimSweep::run_variants_with_threads(&s, &variants, threads);
            assert_eq!(base.by_variant, alt.by_variant, "threads={threads}");
        }
        // Sampling actually happened on racetrack cells.
        let sampled: u64 = base
            .by_variant
            .values()
            .flat_map(|per| per.values())
            .map(|r| r.llc.sampled_shifts)
            .sum();
        assert!(sampled > 0, "engine sampling produced no draws");
    }

    #[test]
    fn variant_parts_cover_paper_matrix() {
        assert_eq!(RtVariant::ALL.len(), 8);
        for v in RtVariant::ALL {
            let (_, _) = v.parts();
            assert!(!v.label().is_empty());
        }
    }
}
