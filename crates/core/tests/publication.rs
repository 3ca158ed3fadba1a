//! The hot paths count their metrics in plain state and publish once per
//! run. With the registry on, each published key must equal what the
//! run itself reports, a conditional key whose event never happened must
//! stay absent, and an unconditional key must be present even at a zero
//! total — exactly what recording every event as it happened left.
//! Three runs are checked: a small variant sweep, a serving run and a
//! bit-accurate `PhysicalCache` walk. A sweep of variants and choices
//! together checks that the racetrack presets reading their variants'
//! lanes publish nothing twice. A controller flushed more than once,
//! reset and then dropped checks that every request is published
//! exactly once.
//!
//! The registry is process-wide, so everything lives in one test.

use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::cache::AccessKind;
use rtm_mem::hierarchy::{LlcChoice, SimResult};
use rtm_mem::physical::PhysicalCache;
use rtm_model::analytic::Engine;
use rtm_obs::metrics::RegistrySnapshot;
use rtm_pecc::layout::ProtectionKind;
use rtm_reliability::injection::InflatedFaultModel;
use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::bit::Bit;
use rtm_track::fault::FaultModelChoice;

/// Runs `run` with the global registry on and empty, and returns what
/// it published.
fn published(run: impl FnOnce()) -> RegistrySnapshot {
    let reg = rtm_obs::global().registry();
    reg.reset();
    reg.set_enabled(true);
    run();
    let snap = reg.snapshot();
    reg.set_enabled(false);
    reg.reset();
    snap
}

fn settings() -> SweepSettings {
    SweepSettings {
        accesses: 6_000,
        seed: 2015,
        workloads: Some(vec!["canneal", "swaptions"]),
        sample_engine: Some(Engine::Analytic),
        fault_model: FaultModelChoice::Engine,
    }
}

fn cells(sweep: &SimSweep) -> Vec<&SimResult> {
    sweep
        .by_variant
        .values()
        .flat_map(|per| per.values())
        .collect()
}

fn sum(cells: &[&SimResult], field: impl Fn(&SimResult) -> u64) -> u64 {
    cells.iter().map(|r| field(r)).sum()
}

fn check_sweep() {
    let mut sweep = SimSweep::default();
    let snap = published(|| {
        sweep = SimSweep::run_variants_with_threads(&settings(), &RtVariant::ALL, 2);
    });
    let cells = cells(&sweep);
    let counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} absent"))
    };
    let llc_accesses = sum(&cells, |r| r.llc.cache.accesses());
    let zero_shift = sum(&cells, |r| r.llc.zero_shift_accesses);

    assert_eq!(counter("hier.accesses"), sum(&cells, |r| r.accesses));
    assert_eq!(counter("hier.l1_misses"), sum(&cells, |r| r.l1_misses));
    assert_eq!(counter("hier.l2_misses"), sum(&cells, |r| r.l2_misses));
    assert_eq!(
        counter("hier.dram_accesses"),
        sum(&cells, |r| r.dram_accesses)
    );
    let latency = snap
        .histogram("hier.access_latency_cycles")
        .expect("hier latency");
    assert_eq!(latency.count, sum(&cells, |r| r.accesses));

    assert_eq!(counter("llc.accesses"), llc_accesses);
    assert_eq!(counter("llc.misses"), sum(&cells, |r| r.llc.cache.misses));
    assert_eq!(counter("llc.zero_shift_accesses"), zero_shift);
    let latency = snap
        .histogram("llc.access_latency_cycles")
        .expect("llc latency");
    assert_eq!(latency.count, llc_accesses);

    // Every access that moved a head was one controller request.
    assert_eq!(counter("shift.count"), llc_accesses - zero_shift);
    assert_eq!(
        counter("shift.operations"),
        sum(&cells, |r| r.llc.shift_ops)
    );
    assert_eq!(counter("shift.steps"), sum(&cells, |r| r.llc.shift_steps));
    assert_eq!(
        counter("pecc.checks"),
        sum(&cells, |r| r.activity.pecc_checks)
    );
    let plans = snap
        .histogram("shift.latency_cycles")
        .expect("shift latency");
    assert_eq!(plans.count, counter("shift.count"));
    assert_eq!(plans.sum, sum(&cells, |r| r.shift_cycles) as f64);
    let distance = snap.histogram("shift.distance").expect("shift distance");
    assert_eq!(distance.sum, counter("shift.steps") as f64);

    assert_eq!(
        counter("engine.sample.shifts"),
        sum(&cells, |r| r.llc.sampled_shifts)
    );
    assert_eq!(
        snap.counter("engine.sample.errors").unwrap_or(0),
        sum(&cells, |r| r.llc.observed_errors)
    );

    // Conditional keys whose event never happened stay absent.
    assert_eq!(sum(&cells, |r| r.llc.cache.writebacks), 0, "a cold run");
    for absent in [
        "llc.writebacks",
        "llc.idle_steps",
        "shift.batch.continuations",
        "shift.batch.saved_cycles",
    ] {
        assert_eq!(snap.get(absent, &[]), None, "{absent}");
    }

    // An unconditional key is present at a zero total: the unprotected
    // baseline plans no check, yet every request recorded `pecc.checks`.
    let snap = published(|| {
        SimSweep::run_variants_with_threads(&settings(), &[RtVariant::Baseline], 1);
    });
    assert!(snap.counter("shift.count").expect("requests") > 0);
    assert_eq!(snap.counter("pecc.checks"), Some(0));
}

fn check_combined_sweep() {
    let s = settings();
    let mut sweep = SimSweep::default();
    let snap = published(|| {
        sweep = SimSweep::run_with_threads(&s, &RtVariant::ALL, &LlcChoice::ALL, 2);
    });
    let workloads = s.profiles().len() as u64;
    let reported: usize = [&sweep.by_variant, &sweep.by_choice]
        .iter()
        .flat_map(|grid| grid.values())
        .map(|per| per.len())
        .sum();
    assert_eq!(reported as u64, 15 * workloads, "every cell is reported");
    // Eight variant lanes plus SRAM, STT-RAM and RM-Ideal ran; the other
    // four racetrack presets read their variants' results.
    assert_eq!(
        snap.counter("hier.accesses"),
        Some(11 * workloads * s.accesses)
    );
}

fn check_serve() {
    let trace = TraceGenerator::new(WorkloadProfile::by_name("canneal").expect("profile"), 7)
        .take_vec(3_000);
    let mut result = None;
    let snap = published(|| {
        let cfg = ServeConfig::new(SchedPolicy::ShiftAware).with_requests(3_000);
        let r = ServeSim::new(cfg).run(&mut trace.into_iter());
        r.record_metrics();
        result = Some(r);
    });
    let r = result.expect("ran");
    let counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} absent"))
    };
    assert_eq!(counter("serve.completed"), r.requests);
    assert_eq!(counter("llc.accesses"), r.llc.cache.accesses());
    assert_eq!(counter("llc.zero_shift_accesses"), r.zero_shift_dispatches);
    assert_eq!(
        counter("shift.count"),
        r.llc.cache.accesses() - r.zero_shift_dispatches
    );
    assert_eq!(counter("shift.operations"), r.llc.shift_ops);
    assert_eq!(counter("shift.steps"), r.llc.shift_steps);
    let service = snap
        .histogram("llc.access_latency_cycles")
        .expect("llc latency");
    assert_eq!(service.sum, r.service.sum as f64);
    // The serving layer has no L1/L2 in front and samples no faults.
    for absent in ["hier.accesses", "engine.sample.shifts"] {
        assert_eq!(snap.get(absent, &[]), None, "{absent}");
    }
}

fn check_physical() {
    const LINES: u64 = 2_048;
    const BITS: usize = 8;
    let mut stats = None;
    let snap = published(|| {
        // Inflated ±1 and ±2 slip rates, so the walk corrects slips
        // and raises DUEs.
        let faults = InflatedFaultModel::new(0.002, 0.0002, 0.5, 11);
        let mut cache =
            PhysicalCache::new(1 << 20, 1, ProtectionKind::SECDED, BITS, Box::new(faults));
        for i in 0..20_000u64 {
            let addr = (i * 7 % LINES) * 64;
            if i % 3 == 0 {
                let bits = [Bit::from(i & 1 == 1); BITS];
                cache.access(addr, AccessKind::Write, Some(&bits));
            } else {
                cache.access(addr, AccessKind::Read, None);
            }
        }
        cache.flush_metrics();
        stats = Some(cache.group_stats());
    });
    let s = stats.expect("walked");
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    // Each stripe of each group transaction ends clean or uncorrectable.
    assert!(s.corrections > 0 && s.dues > 0, "{s:?}");
    assert_eq!(
        counter("pecc.verdict.clean") + counter("pecc.verdict.due"),
        s.transactions * BITS as u64
    );
    assert_eq!(counter("pecc.back_shifts"), s.corrections);
    assert!(counter("pecc.back_shift_steps") >= s.corrections);
    assert_eq!(snap.get("pecc.verdict.due", &[]).is_some(), s.dues > 0);
    assert_eq!(
        snap.get("pecc.back_shifts", &[]).is_some(),
        s.corrections > 0
    );
}

fn check_flush_reset_and_drop() {
    let mut requests = 0;
    let snap = published(|| {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        ctl.plan_shift(3, 0);
        ctl.plan_shift_continuation(2, 40);
        ctl.flush_metrics();
        ctl.flush_metrics();
        ctl.plan_shift(5, 400);
        requests += ctl.stats().requests;
        ctl.reset();
        ctl.plan_shift(1, 900);
        requests += ctl.stats().requests;
        // Dropped here, publishing the last request.
    });
    assert_eq!(requests, 4);
    assert_eq!(snap.counter("shift.count"), Some(4));
    assert_eq!(snap.counter("shift.steps"), Some(11));
    assert_eq!(snap.counter("shift.batch.continuations"), Some(1));
    let latency = snap.histogram("shift.latency_cycles").expect("latency");
    assert_eq!(latency.count, 4);
}

#[test]
fn published_metrics_equal_each_runs_own_statistics() {
    check_sweep();
    check_combined_sweep();
    check_serve();
    check_physical();
    check_flush_reset_and_drop();
}
