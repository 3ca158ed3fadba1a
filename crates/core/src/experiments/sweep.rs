//! Shared simulation sweep machinery: run every (workload × LLC
//! configuration) pair once and let the figure drivers slice the
//! results.
//!
//! The sweep fans out across the `rtm-par` pool one task per workload,
//! whose lanes — every requested racetrack variant, and every requested
//! LLC choice that no variant covers — share a single pass over the
//! trace ([`rtm_mem::hierarchy::run_shared`]). Each workload's trace seed
//! derives from its name alone (never the worker count or schedule),
//! and results are folded into the sweep in strict grid order as they
//! stream back — per-run gauges record at fold time, never from a
//! worker thread — so sweep output and metrics are identical for any
//! `--threads` setting.

use rtm_mem::hierarchy::{run_shared, LaneLlc, LlcChoice, RtVariant, SimResult};
use rtm_mem::ShiftBackEnd;
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
        WorkloadProfile::select(self.workloads.as_deref())
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
    /// [`Self::run_with_threads`] on the process-wide `rtm_par` pool.
    pub fn run(settings: &SweepSettings, variants: &[RtVariant], choices: &[LlcChoice]) -> Self {
        Self::run_with_threads(settings, variants, choices, rtm_par::threads())
    }

    /// Runs every workload against the racetrack `variants` (into
    /// `by_variant`) and the named LLC `choices` (into `by_choice`) on
    /// `threads` workers; results are identical for any `threads` value.
    ///
    /// Each workload is one task, and one pass over its trace serves
    /// [`Self::lanes`] lanes: one per variant, then one per choice that
    /// no variant covers. A racetrack preset whose
    /// [`LlcChoice::variant`] is requested reads that variant's result,
    /// relabelled, with its sampling tallies cleared: sampling is
    /// observational, and a preset's own lane never samples. RM-Ideal
    /// shifts for free, so it has no variant and always runs a lane of
    /// its own.
    pub fn run_with_threads(
        settings: &SweepSettings,
        variants: &[RtVariant],
        choices: &[LlcChoice],
        threads: usize,
    ) -> Self {
        let covered: Vec<Option<usize>> = choices.iter().map(|&c| covering(variants, c)).collect();
        let lanes = Self::lanes(variants, choices);
        let profiles = settings.profiles();
        let progress =
            rtm_obs::timer::Progress::new("sweep", (profiles.len() * lanes) as u64, "lanes");
        let sweep = rtm_par::parallel_fold_with(
            threads,
            profiles.len(),
            |w| {
                let variant_lanes = variants.iter().enumerate().map(|(v, variant)| {
                    let (kind, policy) = variant.parts();
                    let back = ShiftBackEnd::new(kind, policy, 1);
                    let back = match settings.sample_engine {
                        // Sampling seed from (sweep seed, variant grid
                        // index): fixed by the cell layout, independent
                        // of worker scheduling and of the choices.
                        Some(engine) => back.with_fault_model(
                            settings.fault_model,
                            engine,
                            variant_seed(settings, w * variants.len() + v),
                        ),
                        None => back,
                    };
                    (LlcChoice::RacetrackUnprotected, LaneLlc::Racetrack(back))
                });
                let choice_lanes = choices
                    .iter()
                    .zip(&covered)
                    .filter(|(_, by)| by.is_none())
                    .map(|(&c, _)| (c, c.llc()));
                let results = run_shared(
                    variant_lanes.chain(choice_lanes).collect(),
                    &mut trace(settings, profiles[w]),
                    settings.accesses,
                );
                progress.tick(lanes as u64);
                results
            },
            Self::default(),
            // Folded in grid order, variants before choices, so per-run
            // gauges are deterministic for any `threads` value.
            |sweep, w, results| {
                let name = profiles[w].name;
                let mut results = results.into_iter();
                for (variant, r) in variants.iter().zip(results.by_ref()) {
                    r.record_metrics();
                    sweep
                        .by_variant
                        .entry(name)
                        .or_default()
                        .insert(variant.label().to_string(), r);
                }
                for (&choice, by) in choices.iter().zip(&covered) {
                    let r = match by {
                        Some(v) => {
                            let mut r = sweep.by_variant[name][variants[*v].label()].clone();
                            r.choice = choice;
                            r.llc.sampled_shifts = 0;
                            r.llc.observed_errors = 0;
                            r
                        }
                        None => results.next().expect("a lane per uncovered choice"),
                    };
                    r.record_metrics();
                    sweep
                        .by_choice
                        .entry(name)
                        .or_default()
                        .insert(choice.to_string(), r);
                }
            },
        );
        progress.finish();
        sweep
    }

    /// [`Self::run_with_threads`] without choices.
    pub fn run_variants_with_threads(
        settings: &SweepSettings,
        variants: &[RtVariant],
        threads: usize,
    ) -> Self {
        Self::run_with_threads(settings, variants, &[], threads)
    }

    /// The lanes one workload's pass runs for these variants and
    /// choices: every variant, plus each choice no variant covers.
    pub fn lanes(variants: &[RtVariant], choices: &[LlcChoice]) -> usize {
        variants.len()
            + choices
                .iter()
                .filter(|&&c| covering(variants, c).is_none())
                .count()
    }
}

/// The index among `variants` of the first whose lane serves preset
/// `choice`: the preset's own [`LlcChoice::variant`].
fn covering(variants: &[RtVariant], choice: LlcChoice) -> Option<usize> {
    let variant = choice.variant()?;
    variants.iter().position(|&v| v == variant)
}

/// The trace of workload `p`, seeded from the sweep seed and its name.
fn trace(settings: &SweepSettings, p: WorkloadProfile) -> TraceGenerator {
    TraceGenerator::new(
        p,
        rtm_util::rng::derive_seed(settings.seed, rtm_trace::seed_of(p.name)),
    )
}

/// The fault-sampling seed of the variant cell at `index` in the
/// (workload × variant) grid.
fn variant_seed(settings: &SweepSettings, index: usize) -> u64 {
    rtm_util::rng::derive_seed(settings.seed, 0x5EED_0000 + index as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_mem::hierarchy::Hierarchy;
    use rtm_model::analytic::Engine;

    #[test]
    fn quick_sweep_covers_requested_matrix() {
        let s = SweepSettings::quick();
        let sweep = SimSweep::run(
            &s,
            &[],
            &[LlcChoice::SramBaseline, LlcChoice::RacetrackIdeal],
        );
        assert!(sweep.by_variant.is_empty());
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
        let sweep = SimSweep::run(&s, &[RtVariant::Baseline, RtVariant::Sed], &[]);
        assert!(sweep.by_choice.is_empty());
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
        let a = SimSweep::run(&s, &[], &[LlcChoice::SttRam]);
        let b = SimSweep::run(&s, &[], &[LlcChoice::SttRam]);
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
        let base = SimSweep::run_with_threads(&s, &[], &choices, 1);
        for threads in [2usize, 8] {
            let alt = SimSweep::run_with_threads(&s, &[], &choices, threads);
            assert_eq!(base.by_choice, alt.by_choice, "threads={threads}");
        }
        let variants = [RtVariant::Baseline, RtVariant::SecdedSafeAdaptive];
        let vbase = SimSweep::run_with_threads(&s, &variants, &[], 1);
        let valt = SimSweep::run_with_threads(&s, &variants, &[], 8);
        assert_eq!(vbase.by_variant, valt.by_variant);
    }

    #[test]
    fn shared_sweep_matches_per_cell_reference() {
        // One pass per workload serves every variant and every choice no
        // variant covers; each cell must equal the standalone hierarchy
        // of that cell, with the same trace and sampling seed. A choice
        // cell is the preset's own `Hierarchy::new`, whether it ran a
        // lane or read a variant's (RM-Ideal reading the baseline's
        // lane would fail here), and the single-group calls must agree.
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        s.workloads = Some(vec!["canneal", "x264"]);
        let profiles = s.profiles();
        for (engine, fault_model) in [
            (None, FaultModelChoice::Engine),
            (Some(Engine::Analytic), FaultModelChoice::Engine),
            (Some(Engine::MonteCarlo), FaultModelChoice::Engine),
            (Some(Engine::Analytic), FaultModelChoice::Pinning),
        ] {
            s.sample_engine = engine;
            s.fault_model = fault_model;
            let mut variant_cells: BTreeMap<&str, BTreeMap<String, SimResult>> = BTreeMap::new();
            let mut choice_cells = variant_cells.clone();
            for (w, p) in profiles.iter().enumerate() {
                for (v, variant) in RtVariant::ALL.iter().enumerate() {
                    let (kind, policy) = variant.parts();
                    let mut sys = match engine {
                        Some(engine) => Hierarchy::with_racetrack_faults(
                            kind,
                            policy,
                            fault_model,
                            engine,
                            variant_seed(&s, w * RtVariant::ALL.len() + v),
                        ),
                        None => Hierarchy::with_racetrack(kind, policy),
                    };
                    let r = sys.run(&mut trace(&s, *p), s.accesses);
                    variant_cells
                        .entry(p.name)
                        .or_default()
                        .insert(variant.label().to_string(), r);
                }
                for choice in LlcChoice::ALL {
                    let r = Hierarchy::new(choice).run(&mut trace(&s, *p), s.accesses);
                    choice_cells
                        .entry(p.name)
                        .or_default()
                        .insert(choice.to_string(), r);
                }
            }
            for threads in [1usize, 2] {
                let what = format!("engine {engine:?}, {fault_model:?}, threads={threads}");
                let both =
                    SimSweep::run_with_threads(&s, &RtVariant::ALL, &LlcChoice::ALL, threads);
                assert_eq!(both.by_variant, variant_cells, "{what}");
                assert_eq!(both.by_choice, choice_cells, "{what}");
                let variants = SimSweep::run_with_threads(&s, &RtVariant::ALL, &[], threads);
                assert_eq!(variants.by_variant, variant_cells, "{what}");
                let choices = SimSweep::run_with_threads(&s, &[], &LlcChoice::ALL, threads);
                assert_eq!(choices.by_choice, choice_cells, "{what}");
            }
        }
    }

    #[test]
    fn lanes_count_only_uncovered_choices() {
        assert_eq!(SimSweep::lanes(&RtVariant::ALL, &LlcChoice::ALL), 11);
        assert_eq!(SimSweep::lanes(&RtVariant::ALL, &[]), 8);
        assert_eq!(SimSweep::lanes(&[], &LlcChoice::ALL), 7);
        // RM-Ideal has no variant, so it never reads the baseline's lane.
        let ideal = [LlcChoice::RacetrackIdeal];
        assert_eq!(SimSweep::lanes(&[RtVariant::Baseline], &ideal), 2);
        let unprotected = [LlcChoice::RacetrackUnprotected];
        assert_eq!(SimSweep::lanes(&[RtVariant::Baseline], &unprotected), 1);
    }

    #[test]
    fn sampled_sweeps_are_thread_count_invariant() {
        // PR 3 extension of the determinism matrix: engine-sampled
        // variant sweeps must stay bit-identical across 1/2/8 workers.
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        s.workloads = Some(vec!["canneal", "x264"]);
        s.sample_engine = Some(Engine::Analytic);
        let variants = [RtVariant::Baseline, RtVariant::SecdedSafeAdaptive];
        let base = SimSweep::run_with_threads(&s, &variants, &[], 1);
        for threads in [2usize, 8] {
            let alt = SimSweep::run_with_threads(&s, &variants, &[], threads);
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
}
