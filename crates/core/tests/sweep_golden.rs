//! Golden digests of the variant sweep: an FNV-1a digest of every field
//! of every `SimResult` (f64s by bits) that
//! `SimSweep::run_variants_with_threads` returns for all eight racetrack
//! variants on a small grid, under each sampling engine and each fault
//! model, at one and at eight workers. A host-time optimisation of the
//! sweep, the hierarchy, the LLC or the shift controller must leave
//! every digest untouched; the benchmark's model digest reads only a
//! few fields under one engine and cannot see the rest.
//!
//! The choice sweep (`SimSweep::run_choices_with_threads` over all seven
//! `LlcChoice`s, Figs. 16-18) is pinned the same way on the same grid.

use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::hierarchy::{LlcChoice, SimResult};
use rtm_mem::llc::{LlcStats, ScaleStats};
use rtm_mem::CacheStats;
use rtm_model::analytic::Engine;
use rtm_track::fault::FaultModelChoice;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn add(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// Every field, by exhaustive destructuring: a field added to any of
    /// these records fails to compile here until it is digested too.
    fn result(&mut self, r: &SimResult) {
        let SimResult {
            choice,
            accesses,
            instructions,
            cycles,
            duration,
            l1_misses,
            l2_misses,
            llc,
            activity,
            dram_accesses,
            shift_cycles,
            scale,
        } = r;
        self.bytes(choice.to_string().as_bytes());
        for v in [*accesses, *instructions, *cycles] {
            self.add(v);
        }
        self.add_f64(duration.as_secs());
        for v in [*l1_misses, *l2_misses, *dram_accesses, *shift_cycles] {
            self.add(v);
        }
        let LlcStats {
            cache,
            shift_ops,
            shift_steps,
            shift_cycles,
            verify_cycles,
            zero_shift_accesses,
            expected_dues,
            expected_sdcs,
            sampled_shifts,
            observed_errors,
        } = llc;
        let CacheStats {
            hits,
            misses,
            writebacks,
            reads,
            writes,
        } = cache;
        for v in [
            *hits,
            *misses,
            *writebacks,
            *reads,
            *writes,
            *shift_ops,
            *shift_steps,
            *shift_cycles,
            *verify_cycles,
            *zero_shift_accesses,
            *sampled_shifts,
            *observed_errors,
        ] {
            self.add(v);
        }
        self.add_f64(*expected_dues);
        self.add_f64(*expected_sdcs);
        let rtm_cost::energy::LlcActivity {
            reads,
            writes,
            shift_steps,
            shift_ops,
            pecc_checks,
            pecc_corrections,
            duration,
        } = activity;
        for v in [
            *reads,
            *writes,
            *shift_steps,
            *shift_ops,
            *pecc_checks,
            *pecc_corrections,
        ] {
            self.add(v);
        }
        self.add_f64(duration.as_secs());
        let ScaleStats {
            configured_groups,
            materialised_groups,
            pristine_hits,
            arena_bytes,
        } = scale;
        for v in [
            *configured_groups,
            *materialised_groups,
            *pristine_hits,
            *arena_bytes,
        ] {
            self.add(v);
        }
    }
}

fn settings(engine: Option<Engine>, fault_model: FaultModelChoice) -> SweepSettings {
    SweepSettings {
        accesses: 10_000,
        seed: 2015,
        workloads: Some(vec!["canneal", "streamcluster", "swaptions"]),
        sample_engine: engine,
        fault_model,
    }
}

/// Digest of the whole sweep, workloads and variants in map order.
fn digest(settings: &SweepSettings, threads: usize) -> u64 {
    let sweep = SimSweep::run_variants_with_threads(settings, &RtVariant::ALL, threads);
    let mut h = Fnv(FNV_OFFSET);
    assert_eq!(sweep.by_variant.len(), 3);
    for (workload, per) in &sweep.by_variant {
        assert_eq!(per.len(), RtVariant::ALL.len());
        h.bytes(workload.as_bytes());
        for (label, r) in per {
            h.bytes(label.as_bytes());
            h.result(r);
        }
    }
    h.0
}

/// Digest of the choice sweep, workloads and choices in map order.
fn choice_digest(settings: &SweepSettings, threads: usize) -> u64 {
    let sweep = SimSweep::run_choices_with_threads(settings, &LlcChoice::ALL, threads);
    let mut h = Fnv(FNV_OFFSET);
    assert_eq!(sweep.by_choice.len(), 3);
    for (workload, per) in &sweep.by_choice {
        assert_eq!(per.len(), LlcChoice::ALL.len());
        h.bytes(workload.as_bytes());
        for (label, r) in per {
            h.bytes(label.as_bytes());
            h.result(r);
        }
    }
    h.0
}

fn check(engine: Option<Engine>, fault_model: FaultModelChoice, want: u64) {
    let s = settings(engine, fault_model);
    for threads in [1, 8] {
        let got = digest(&s, threads);
        assert_eq!(
            got, want,
            "engine {engine:?}, fault model {fault_model:?}, {threads} threads: {got:#018x}"
        );
    }
}

#[test]
fn unsampled_sweep_is_pinned() {
    check(None, FaultModelChoice::Engine, 0xf0a0_f3e9_b38a_2981);
}

#[test]
fn analytic_engine_sweep_is_pinned() {
    check(
        Some(Engine::Analytic),
        FaultModelChoice::Engine,
        0x7544_ab78_cb24_749d,
    );
}

#[test]
fn analytic_calibrated_sweep_is_pinned() {
    check(
        Some(Engine::Analytic),
        FaultModelChoice::Calibrated,
        0x62b5_d6b0_e48b_8c85,
    );
}

#[test]
fn analytic_pinning_sweep_is_pinned() {
    check(
        Some(Engine::Analytic),
        FaultModelChoice::Pinning,
        0x8a37_285f_3e4b_3e76,
    );
}

#[test]
fn monte_carlo_sweep_is_pinned() {
    check(
        Some(Engine::MonteCarlo),
        FaultModelChoice::Engine,
        0x8c9b_4a83_7735_d196,
    );
}

#[test]
fn choice_sweep_is_pinned() {
    let s = settings(None, FaultModelChoice::Engine);
    for threads in [1, 8] {
        let got = choice_digest(&s, threads);
        assert_eq!(
            got, 0x2c02_c64c_bab6_a328,
            "choice sweep, {threads} threads: {got:#018x}"
        );
    }
}
