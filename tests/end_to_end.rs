//! Cross-crate integration tests: the full pipeline from workload
//! trace through the cache hierarchy, shift controller and p-ECC down
//! to MTTF and energy reports.

use hifi_rtm::controller::controller::ShiftPolicy;
use hifi_rtm::core::experiments::{RtVariant, SimSweep, SweepSettings};
use hifi_rtm::core::RtmConfig;
use hifi_rtm::mem::hierarchy::{Hierarchy, LlcChoice};
use hifi_rtm::trace::{TraceGenerator, WorkloadProfile};
use hifi_rtm::util::units::SECONDS_PER_YEAR;

fn quick_settings() -> SweepSettings {
    let mut s = SweepSettings::quick();
    s.accesses = 30_000;
    s
}

#[test]
fn full_pipeline_reproduces_protection_ladder() {
    // One workload, all six racetrack variants, end to end.
    let mut settings = quick_settings();
    settings.workloads = Some(vec!["streamcluster"]);
    let sweep = SimSweep::run(&settings, &RtVariant::ALL, &[]);
    let per = &sweep.by_variant["streamcluster"];

    let sdc = |v: RtVariant| per[v.label()].sdc_mttf().as_secs();
    let due = |v: RtVariant| per[v.label()].due_mttf().as_secs();

    // The paper's reliability ladder, Figs. 10 and 11.
    assert!(sdc(RtVariant::Baseline) < 1e-3, "baseline is microseconds");
    assert!(sdc(RtVariant::Sed) > sdc(RtVariant::Baseline) * 1e3);
    assert!(sdc(RtVariant::Secded) > 1000.0 * SECONDS_PER_YEAR);
    assert!(due(RtVariant::Sed) < 1.0);
    assert!(due(RtVariant::Secded) < due(RtVariant::SecdedSafeAdaptive));
    assert!(due(RtVariant::SecdedSafeAdaptive) > 10.0 * SECONDS_PER_YEAR);
    assert!(due(RtVariant::SecdedO) >= due(RtVariant::SecdedSafeAdaptive));
}

#[test]
fn execution_time_ordering_follows_fig16() {
    let p = WorkloadProfile::by_name("ferret").unwrap();
    let n = 400_000;
    let cycles = |choice: LlcChoice| {
        let mut sys = Hierarchy::new(choice);
        sys.run(&mut TraceGenerator::new(p, 99), n).cycles
    };
    let ideal = cycles(LlcChoice::RacetrackIdeal);
    let unprot = cycles(LlcChoice::RacetrackUnprotected);
    let adaptive = cycles(LlcChoice::RacetrackPeccSAdaptive);
    let pecc_o = cycles(LlcChoice::RacetrackPeccO);
    let sram = cycles(LlcChoice::SramBaseline);

    // Shift latency and protection stack in the expected order.
    assert!(ideal <= unprot);
    assert!(unprot <= adaptive);
    assert!(adaptive <= pecc_o);
    // ferret's 64 MB working set thrashes the 4 MB SRAM LLC.
    assert!(
        ideal < sram,
        "big LLC must win on a capacity-sensitive load"
    );
}

#[test]
fn config_builder_to_controller_to_stripe_agree() {
    // The statistical controller and the physical stripe must agree on
    // what a sequence costs and what a code can repair.
    let config = RtmConfig::paper_default().with_policy(ShiftPolicy::Adaptive);
    let mut controller = config.build_controller();
    let mut stripe = config.build_stripe();

    // Plan a 7-step request cold (safest sequence) and apply it
    // physically with one injected +1 error.
    let plan = controller.plan_shift(7, 0);
    assert_eq!(plan.sequence.iter().sum::<u32>(), 7);
    let mut faults = hifi_rtm::track::fault::ScriptedFaultModel::new([
        hifi_rtm::model::shift::ShiftOutcome::Pinned { offset: 1 },
    ]);
    let mut worst = hifi_rtm::pecc::code::Verdict::Clean;
    for &d in &plan.sequence {
        let v = stripe.shift_checked(d as i64, &mut faults, 3);
        if v != hifi_rtm::pecc::code::Verdict::Clean {
            worst = v;
        }
    }
    assert_eq!(worst, hifi_rtm::pecc::code::Verdict::Clean);
    assert!(stripe.is_synchronised());
    assert_eq!(stripe.believed_head(), 7);
}

#[test]
fn energy_composition_is_consistent_across_layers() {
    let p = WorkloadProfile::by_name("vips").unwrap();
    let mut sys = Hierarchy::new(LlcChoice::RacetrackPeccSAdaptive);
    let r = sys.run(&mut TraceGenerator::new(p, 5), 100_000);
    // Activity counters must match the stats the energy model consumed.
    assert_eq!(r.activity.reads, r.llc.cache.reads);
    assert_eq!(r.activity.shift_steps, r.llc.shift_steps);
    assert!(r.activity.pecc_checks > 0);
    // Dynamic < total (leakage is positive), and the system proxy adds
    // DRAM energy on top.
    let dyn_e = r.llc_dynamic_energy().value();
    let tot = r.llc_total_energy().value();
    let sys_e = r.system_energy().value();
    assert!(dyn_e > 0.0 && tot > dyn_e && sys_e > tot);
}

#[test]
fn unprotected_vs_protected_risk_budget() {
    // Same trace, same shifts: protection must not change WHAT shifts
    // happen (head positions are data-driven), only their cost & risk.
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let run = |choice: LlcChoice| {
        let mut sys = Hierarchy::new(choice);
        sys.run(&mut TraceGenerator::new(p, 31), 60_000)
    };
    let unprot = run(LlcChoice::RacetrackUnprotected);
    let adaptive = run(LlcChoice::RacetrackPeccSAdaptive);
    assert_eq!(unprot.llc.shift_steps, adaptive.llc.shift_steps);
    assert_eq!(unprot.llc.cache.misses, adaptive.llc.cache.misses);
    // All risk silent without p-ECC; essentially none with it.
    assert!(unprot.llc.expected_sdcs > 0.0);
    assert_eq!(unprot.llc.expected_dues, 0.0);
    assert!(adaptive.llc.expected_sdcs < unprot.llc.expected_sdcs * 1e-9);
}

#[test]
fn workload_capacity_classes_behave() {
    // Each capacity-sensitive workload must benefit more from the big
    // LLC than each insensitive one (cycle ratio RM-Ideal / SRAM).
    let ratio = |name: &str| {
        let p = WorkloadProfile::by_name(name).unwrap();
        let mut rm = Hierarchy::new(LlcChoice::RacetrackIdeal);
        let mut sram = Hierarchy::new(LlcChoice::SramBaseline);
        let n = 600_000;
        let a = rm.run(&mut TraceGenerator::new(p, 77), n).cycles as f64;
        let b = sram.run(&mut TraceGenerator::new(p, 77), n).cycles as f64;
        a / b
    };
    let sensitive = ratio("freqmine");
    let insensitive = ratio("blackscholes");
    assert!(
        sensitive < insensitive - 0.02,
        "freqmine {sensitive:.3} vs blackscholes {insensitive:.3}"
    );
}
