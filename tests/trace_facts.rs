//! Pins what the trace says about three small runs: the statistical
//! controller, the serving layer and the bit-accurate stripe. Each run
//! records with the trace on, and the trace is read back as fact
//! lines, `kind cycle field=value …`, one per shift-transaction or
//! queue event in the vocabulary the digests were first pinned in,
//! with the fields in that event's order:
//!
//! | fact | read from |
//! |---|---|
//! | `ShiftPlanned t distance parts latency_cycles` | `plan_shift` span `[t, t+latency)` |
//! | `SafeDistanceSplit t distance cap parts` | the `cap` of a split `plan_shift` |
//! | `StsPulse t distance cycles` | `sts_pulse` span `[t, t+cycles)` |
//! | `PeccVerdict t outcome` | a `pecc_verify` span ending at `t`, or a stripe instant |
//! | `ReqEnqueued t id group` | the start of a `request` span |
//! | `ReqDispatched t id group queue_delay` | its `dispatch` child; its `queue` child's duration |
//! | `ReqCompleted t id service_cycles` | the `request`'s end; its `dispatch` child's duration |
//! | `ReqBackpressure t group` | a root `backpressure` instant |
//! | `BackShift t steps` | a `back_shift` instant |
//!
//! The sorted lines are hashed with FNV-1a, so the digests hold for any
//! trace layout that carries the same facts.
//!
//! The trace is process-global, so all three runs live in one test.

use hifi_rtm::controller::controller::{ShiftController, ShiftPolicy};
use hifi_rtm::model::shift::ShiftOutcome;
use hifi_rtm::obs::span::{SpanRecord, SpanTraceSnapshot};
use hifi_rtm::pecc::{ProtectedStripe, ProtectionKind, Verdict};
use hifi_rtm::serve::{SchedPolicy, ServeConfig, ServeSim};
use hifi_rtm::trace::{TraceGenerator, WorkloadProfile};
use hifi_rtm::track::fault::ScriptedFaultModel;
use hifi_rtm::track::StripeGeometry;

/// Fact count and digest of the controller run.
const CONTROLLER_FACTS: (usize, u64) = (207, 0xf319_07c8_9431_2f61);
/// Fact count and digest of the serving run.
const SERVING_FACTS: (usize, u64) = (1_929, 0x5793_568d_f4fe_de78);
/// Fact count and digest of the stripe run.
const STRIPE_FACTS: (usize, u64) = (10, 0xf4bf_da19_0b3a_920e);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fact lines a trace holds (see the module table).
fn facts(snap: &SpanTraceSnapshot) -> Vec<String> {
    let attr =
        |s: &SpanRecord, key: &str| s.attr(key).unwrap_or_else(|| panic!("{} {key}", s.name));
    let child = |s: &SpanRecord, name: &str| {
        let found = snap.children_of(s.id).into_iter().find(|c| c.name == name);
        found.unwrap_or_else(|| panic!("{} has no {name}", s.name))
    };
    let mut facts = Vec::new();
    for s in &snap.spans {
        let (start, end) = (s.start_cycle, s.end_cycle);
        match s.name.as_str() {
            "plan_shift" => {
                let (distance, parts) = (attr(s, "distance"), attr(s, "parts"));
                facts.push(format!(
                    "ShiftPlanned {start} distance={distance} parts={parts} latency_cycles={}",
                    s.duration()
                ));
                if let Some(cap) = s.attr("cap") {
                    facts.push(format!(
                        "SafeDistanceSplit {start} distance={distance} cap={cap} parts={parts}"
                    ));
                }
            }
            "sts_pulse" => facts.push(format!(
                "StsPulse {start} distance={} cycles={}",
                attr(s, "distance"),
                s.duration()
            )),
            "pecc_verify" | "pecc_clean" => facts.push(format!("PeccVerdict {end} outcome=Clean")),
            "pecc_corrected" => facts.push(format!(
                "PeccVerdict {start} outcome=Corrected({})",
                attr(s, "k")
            )),
            "pecc_due" => facts.push(format!("PeccVerdict {start} outcome=DetectedUncorrectable")),
            "back_shift" => facts.push(format!("BackShift {start} steps={}", attr(s, "steps"))),
            "backpressure" => facts.push(format!(
                "ReqBackpressure {start} group={}",
                attr(s, "group")
            )),
            "request" => {
                let (id, group) = (attr(s, "id"), attr(s, "group"));
                let dispatch = child(s, "dispatch");
                facts.push(format!("ReqEnqueued {start} id={id} group={group}"));
                facts.push(format!(
                    "ReqDispatched {} id={id} group={group} queue_delay={}",
                    dispatch.start_cycle,
                    child(s, "queue").duration()
                ));
                facts.push(format!(
                    "ReqCompleted {end} id={id} service_cycles={}",
                    dispatch.duration()
                ));
            }
            "queue" | "dispatch" | "mem_fill" => {}
            other => panic!("unexpected span {other}"),
        }
    }
    facts
}

/// Runs `run` with the trace on and returns its facts; nothing may be
/// dropped.
fn recorded(run: impl FnOnce()) -> Vec<String> {
    let trace = hifi_rtm::obs::global().spans();
    trace.reset();
    trace.set_enabled(true);
    run();
    trace.set_enabled(false);
    let snap = trace.snapshot();
    trace.reset();
    assert_eq!(snap.dropped, 0, "the ring must hold the whole run");
    facts(&snap)
}

/// The fact count and the digest of the sorted fact lines.
fn digest(mut facts: Vec<String>) -> (usize, u64) {
    facts.sort();
    (facts.len(), fnv1a(facts.join("\n").as_bytes()))
}

/// Distances 1–7 one by one, then a fused batch of three, under three
/// protection/policy pairs (Adaptive's plan table covers 1–7 only).
fn controller_run() {
    let configs = [
        (ProtectionKind::SECDED, ShiftPolicy::WORST_CASE),
        (ProtectionKind::SECDED, ShiftPolicy::Adaptive),
        (ProtectionKind::SECDED_O, ShiftPolicy::StepByStep),
    ];
    for (kind, policy) in configs {
        let mut ctl = ShiftController::new(kind, policy);
        let mut t = 1_000;
        for d in 1..=7 {
            t += ctl.plan_shift(d, t).latency.count() + 500;
        }
        ctl.plan_shift_batch(&[3, 5, 7], t);
    }
}

/// The 200-request FCFS canneal run, which stalls on full queues.
fn serving_run() {
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let cfg = ServeConfig::new(SchedPolicy::Fcfs).with_requests(200);
    let r = ServeSim::new(cfg).run(&mut TraceGenerator::new(p, 2015));
    assert_eq!(r.requests, 200);
    assert!(r.backpressure_stalls > 0, "the run must see back-pressure");
}

/// A clean check, a corrected offset with its back-shift, and a DUE
/// after the retry budget runs out.
fn stripe_run() {
    let mut s = ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::SECDED)
        .expect("SECDED fits the paper geometry");
    let mut clean = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 0 }]);
    assert_eq!(s.shift_checked(3, &mut clean, 3), Verdict::Clean);
    let mut slip = ScriptedFaultModel::new([
        ShiftOutcome::Pinned { offset: 1 },
        ShiftOutcome::Pinned { offset: 0 },
    ]);
    assert_eq!(s.shift_checked(-3, &mut slip, 3), Verdict::Clean);
    assert_eq!(s.corrections(), 1, "one corrective back-shift");
    let mut stuck = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }; 4]);
    assert_eq!(s.shift_checked(3, &mut stuck, 2), Verdict::Uncorrectable);
}

#[test]
fn trace_facts_match_pinned_digests() {
    let controller = recorded(controller_run);
    let serving = recorded(serving_run);
    let stripe = recorded(stripe_run);
    assert_eq!(digest(controller), CONTROLLER_FACTS, "controller facts");
    assert_eq!(digest(serving), SERVING_FACTS, "serving facts");
    assert_eq!(digest(stripe), STRIPE_FACTS, "stripe facts");
}
