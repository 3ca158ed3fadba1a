//! The controller's costed plan table against `cost_sequence`: every
//! plan `plan_shift` and `plan_shift_continuation` return must be
//! exactly the costing of the sequence the policy selects, f64s by
//! bits, and a long random request stream must leave the statistics
//! bit-identical to the same stream costed call by call.

use rtm_controller::controller::{ControllerStats, ShiftController, ShiftPlan, ShiftPolicy};
use rtm_model::sts::StsTiming;
use rtm_pecc::layout::ProtectionKind;
use rtm_util::rng::SmallRng64;
use rtm_util::units::Cycles;

const WORST: ShiftPolicy = ShiftPolicy::FixedSafe {
    worst_intensity_hz: 83_000_000,
};

/// The (kind, policy) pairs of the sweep's eight racetrack variants and
/// of the named racetrack LLC presets (which they include).
const CONFIGS: [(ProtectionKind, ShiftPolicy); 8] = [
    (ProtectionKind::None, ShiftPolicy::Unconstrained),
    (ProtectionKind::Sed, ShiftPolicy::Unconstrained),
    (ProtectionKind::SECDED, ShiftPolicy::Unconstrained),
    (ProtectionKind::SECDED_O, ShiftPolicy::StepByStep),
    (ProtectionKind::SECDED, WORST),
    (ProtectionKind::SECDED, ShiftPolicy::Adaptive),
    (ProtectionKind::CHEE_KIAH, ShiftPolicy::Unconstrained),
    (ProtectionKind::VAHID_2DI, ShiftPolicy::Unconstrained),
];

/// Longest request each policy accepts in these tests: the adaptive
/// table ends at 7 steps, the others split any distance.
fn max_distance(policy: ShiftPolicy) -> u32 {
    match policy {
        ShiftPolicy::Adaptive => 7,
        _ => 12,
    }
}

/// The sequence the policy selects, derived independently of the plan
/// table.
fn reference_sequence(ctl: &ShiftController, distance: u32, interval: u64) -> Vec<u32> {
    match ctl.policy() {
        ShiftPolicy::Unconstrained => vec![distance],
        ShiftPolicy::StepByStep => vec![1; distance as usize],
        ShiftPolicy::FixedSafe { worst_intensity_hz } => {
            let cap = ctl
                .budget()
                .safe_distance_at(worst_intensity_hz as f64)
                .unwrap_or(1);
            let (mut parts, mut rest) = (Vec::new(), distance);
            while rest > 0 {
                parts.push(rest.min(cap));
                rest -= rest.min(cap);
            }
            parts
        }
        ShiftPolicy::Adaptive => ctl
            .sequence_table()
            .select(distance, interval)
            .sequence
            .clone(),
    }
}

fn assert_same(got: &ShiftPlan, want: &ShiftPlan, what: &str) {
    assert_eq!(got.sequence, want.sequence, "{what}");
    assert_eq!(got.latency, want.latency, "{what}");
    assert_eq!(got.checks, want.checks, "{what}");
    assert_eq!(got.due_risk.to_bits(), want.due_risk.to_bits(), "{what}");
    assert_eq!(got.sdc_risk.to_bits(), want.sdc_risk.to_bits(), "{what}");
    assert_eq!(
        got.expected_corrections.to_bits(),
        want.expected_corrections.to_bits(),
        "{what}"
    );
}

/// The intervals to probe at `distance`: 0, `u64::MAX`, and both sides
/// of every Pareto option's threshold.
fn intervals(ctl: &ShiftController, distance: u32) -> Vec<u64> {
    let table = ctl.sequence_table();
    let mut out = vec![0, u64::MAX];
    if distance <= table.max_distance() {
        for o in table.options(distance) {
            out.extend([o.min_interval - 1, o.min_interval]);
        }
    }
    out
}

#[test]
fn every_plan_is_the_costing_of_the_selected_sequence() {
    let setup = StsTiming::paper().setup_cycles().count();
    for (kind, policy) in CONFIGS {
        let fresh = ShiftController::new(kind, policy);
        for distance in 1..=max_distance(policy) {
            for interval in intervals(&fresh, distance) {
                let what = format!("{kind:?} {policy:?} d={distance} interval={interval}");
                let want = fresh.cost_sequence(&reference_sequence(&fresh, distance, interval));
                // The previous request at cycle 0 makes the interval
                // exactly `interval`; a cold controller measures 0.
                let (mut plain, mut fused) = (fresh.clone(), fresh.clone());
                if interval > 0 {
                    plain.plan_shift(1, 0);
                    fused.plan_shift(1, 0);
                }
                assert_same(&plain.plan_shift(distance, interval), &want, &what);
                let continued = fused.plan_shift_continuation(distance, interval);
                let want = ShiftPlan {
                    latency: Cycles(want.latency.count() - setup),
                    ..want
                };
                assert_same(&continued, &want, &what);
            }
        }
    }
}

/// Statistics accumulated exactly as the controller documents them,
/// from `cost_sequence` plans.
fn account(stats: &mut ControllerStats, plan: &ShiftPlan, distance: u32, saved: Option<u64>) {
    let latency = plan.latency.count() - saved.unwrap_or(0);
    if let Some(saved) = saved {
        stats.batched_requests += 1;
        stats.batch_saved_cycles += saved;
    }
    stats.requests += 1;
    stats.operations += plan.sequence.len() as u64;
    stats.steps += u64::from(distance);
    stats.shift_cycles += latency;
    stats.checks += u64::from(plan.checks);
    stats.expected_dues += plan.due_risk;
    stats.expected_sdcs += plan.sdc_risk;
}

#[test]
fn random_stream_leaves_bit_identical_stats() {
    let setup = StsTiming::paper().setup_cycles().count();
    for (i, (kind, policy)) in CONFIGS.into_iter().enumerate() {
        let mut ctl = ShiftController::new(kind, policy);
        let mut reference = ControllerStats::default();
        let mut rng = SmallRng64::new(0x51A7 + i as u64);
        let (mut now, mut last) = (0u64, None);
        for _ in 0..100_000 {
            // Mostly short gaps, with idle stretches long enough to
            // reach every adaptive option.
            now += match rng.next_below(8) {
                0 => rng.next_below(4_000_000),
                1 => 0,
                _ => rng.next_below(100),
            };
            let distance = 1 + rng.next_below(u64::from(max_distance(policy))) as u32;
            let fused = rng.next_below(4) == 0;
            let interval = last.map_or(0, |prev| now - prev);
            last = Some(now);
            let plan = ctl.cost_sequence(&reference_sequence(&ctl, distance, interval));
            account(&mut reference, &plan, distance, fused.then_some(setup));
            if fused {
                ctl.plan_shift_continuation(distance, now);
            } else {
                ctl.plan_shift(distance, now);
            }
        }
        let got = *ctl.stats();
        let what = format!("{kind:?} {policy:?}");
        assert_eq!(
            got.expected_dues.to_bits(),
            reference.expected_dues.to_bits(),
            "{what}"
        );
        assert_eq!(
            got.expected_sdcs.to_bits(),
            reference.expected_sdcs.to_bits(),
            "{what}"
        );
        assert_eq!(got, reference, "{what}");
    }
}
