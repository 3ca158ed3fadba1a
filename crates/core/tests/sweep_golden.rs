//! Golden digests of the variant sweep: one FNV-1a digest per racetrack
//! variant of every field of every `SimResult` (f64s by bits) that
//! `SimSweep::run_with_threads` returns for it on a small grid, under
//! each sampling engine and each fault model, at one and at eight
//! workers. A change meant to move one variant's model output re-pins
//! that variant's digest alone, and a failure names every variant that
//! moved. A host-time optimisation of the sweep, the hierarchy, the LLC
//! or the shift controller must leave every digest untouched; the
//! benchmark's model digest reads only a few fields under one engine
//! and cannot see the rest.
//!
//! The choice cells (all seven `LlcChoice`s, Figs. 16-18) are pinned
//! the same way on the same grid, as one digest. Every digest must hold
//! whether the sweep ran one group alone or both together, where the
//! racetrack presets read their variants' lanes.

use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::hierarchy::{LlcChoice, SimResult};
use rtm_mem::llc::{LlcStats, ScaleStats};
use rtm_mem::CacheStats;
use rtm_model::analytic::Engine;
use rtm_track::fault::FaultModelChoice;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

// Per-variant digests, in `RtVariant::ALL` order (Baseline, SED,
// SECDED, SECDED-O, p-ECC-S worst, p-ECC-S adaptive, Chee-Kiah,
// Vahid 2-DI), one array per sampling engine and fault model.

const UNSAMPLED: [u64; 8] = [
    0xb16c_24ff_489e_69ed,
    0xdcd7_38cf_03aa_b379,
    0xdd56_d350_4208_a2f3,
    0x3b22_1692_e7d1_c385,
    0xed82_5675_a81d_527d,
    0xcc06_8e8e_a7b7_9fd0,
    0x4ace_10d5_7e3d_91aa,
    0x8b09_1064_3805_5165,
];

const ANALYTIC: [u64; 8] = [
    0x7bc1_dfa5_a1f8_11d7,
    0xc1ac_5121_ac84_cb91,
    0x26bf_18d8_051e_b4bd,
    0x8916_ca1b_bf30_59c6,
    0xb872_900a_a722_dc95,
    0x04b0_ce46_b0a3_dfff,
    0x0177_ba9b_2089_6c6c,
    0x41b8_c823_d5ec_6d97,
];

const ANALYTIC_CALIBRATED: [u64; 8] = [
    0xa3db_029c_7cfd_299d,
    0xb0d4_440e_7ea9_641f,
    0x2444_0d36_a13a_244a,
    0x8dd2_544d_4390_929b,
    0x9879_5dae_1205_2972,
    0x704d_2576_1fe8_ca0e,
    0x1375_c348_3170_7480,
    0xb468_37cd_d78b_3347,
];

const ANALYTIC_PINNING: [u64; 8] = [
    0xf5ab_7a41_7c36_f585,
    0x6e68_ea60_ebc0_cc08,
    0xa086_7f27_fd2b_ee12,
    0xc2ca_8c24_5fa3_c297,
    0x6a1a_91bb_b687_64e2,
    0x3b58_c399_efa6_7aba,
    0xb10c_7210_36a6_7da7,
    0xa3f3_28d7_e070_be78,
];

const MONTE_CARLO: [u64; 8] = [
    0xfe48_3760_7bc9_6077,
    0x0002_bd15_c91b_cec1,
    0x7965_4cb2_1612_ee94,
    0x922a_9dab_ea96_36d4,
    0x3a71_e634_4bb3_dbbf,
    0x79ca_9970_0f24_72ac,
    0xad7b_5591_136c_dad1,
    0x6616_8805_93d1_5b79,
];

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

/// One digest per variant, in `RtVariant::ALL` order: each folds that
/// variant's results over the workloads in map order.
fn digests(sweep: &SimSweep) -> [u64; 8] {
    assert_eq!(sweep.by_variant.len(), 3);
    RtVariant::ALL.map(|v| {
        let mut h = Fnv(FNV_OFFSET);
        for (workload, per) in &sweep.by_variant {
            assert_eq!(per.len(), RtVariant::ALL.len());
            h.bytes(workload.as_bytes());
            h.bytes(v.label().as_bytes());
            h.result(&per[v.label()]);
        }
        h.0
    })
}

/// Digest of the choice cells, workloads and choices in map order.
fn choice_digest(sweep: &SimSweep) -> u64 {
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

/// The choice cells' digest, whichever group or groups a sweep ran.
const CHOICES: u64 = 0x2c02_c64c_bab6_a328;

/// Asserts every variant's digest, and the choice digest, at one and at
/// eight workers, from the variant sweep alone and from the sweep of
/// variants and choices together, naming each variant that moved.
fn check(engine: Option<Engine>, fault_model: FaultModelChoice, want: [u64; 8]) {
    let s = settings(engine, fault_model);
    for threads in [1, 8] {
        let alone = SimSweep::run_with_threads(&s, &RtVariant::ALL, &[], threads);
        let both = SimSweep::run_with_threads(&s, &RtVariant::ALL, &LlcChoice::ALL, threads);
        for (call, sweep) in [("variants", &alone), ("variants + choices", &both)] {
            let got = digests(sweep);
            let moved: Vec<String> = RtVariant::ALL
                .iter()
                .zip(got.iter().zip(want))
                .filter(|(_, (g, w))| *g != w)
                .map(|(v, (g, _))| format!("{}: {g:#018x}", v.label()))
                .collect();
            assert!(
                moved.is_empty(),
                "{call}, engine {engine:?}, fault model {fault_model:?}, {threads} threads: {moved:?}; all: {got:#018x?}"
            );
        }
        let got = choice_digest(&both);
        assert_eq!(
            got, CHOICES,
            "choices beside variants, engine {engine:?}, fault model {fault_model:?}, {threads} threads: {got:#018x}"
        );
    }
}

#[test]
fn unsampled_sweep_is_pinned() {
    check(None, FaultModelChoice::Engine, UNSAMPLED);
}

#[test]
fn analytic_engine_sweep_is_pinned() {
    check(Some(Engine::Analytic), FaultModelChoice::Engine, ANALYTIC);
}

#[test]
fn analytic_calibrated_sweep_is_pinned() {
    check(
        Some(Engine::Analytic),
        FaultModelChoice::Calibrated,
        ANALYTIC_CALIBRATED,
    );
}

#[test]
fn analytic_pinning_sweep_is_pinned() {
    check(
        Some(Engine::Analytic),
        FaultModelChoice::Pinning,
        ANALYTIC_PINNING,
    );
}

#[test]
fn monte_carlo_sweep_is_pinned() {
    check(
        Some(Engine::MonteCarlo),
        FaultModelChoice::Engine,
        MONTE_CARLO,
    );
}

#[test]
fn choice_sweep_is_pinned() {
    let s = settings(None, FaultModelChoice::Engine);
    for threads in [1, 8] {
        let got = choice_digest(&SimSweep::run_with_threads(
            &s,
            &[],
            &LlcChoice::ALL,
            threads,
        ));
        assert_eq!(got, CHOICES, "choice sweep, {threads} threads: {got:#018x}");
    }
}
