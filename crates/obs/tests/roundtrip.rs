//! Cross-module invariants the unit tests cannot see in one place:
//! every export format round-trips byte-identically, and span trees
//! obey the attribution invariants the profiler reports rely on.

use rtm_obs::attrib::AttributionTable;
use rtm_obs::export::{chrome_trace, folded_stacks};
use rtm_obs::json::Json;
use rtm_obs::metrics::{MetricsRegistry, RegistrySnapshot};
use rtm_obs::span::{SpanTrace, SpanTraceSnapshot};

/// export → parse → re-export must be byte-identical: the pretty
/// printer is deterministic and the parser loses nothing.
fn assert_json_stable(doc: &Json) {
    let first = doc.pretty();
    let reparsed = Json::parse(&first).expect("self-produced JSON parses");
    assert_eq!(
        reparsed.pretty(),
        first,
        "JSON re-export not byte-identical"
    );
}

fn populated_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    r.set_enabled(true);
    r.counter_add("shift.count", 41);
    r.gauge_set("energy.pj", 2.625);
    for v in [1.0, 3.0, 250.0, 9.5] {
        r.observe("shift.latency", v);
    }
    for tenant in 0..3 {
        let t = tenant.to_string();
        r.counter_add_with(
            "serve.requests",
            &[("tenant", &t), ("scheme", "p-ECC-S")],
            10 + tenant,
        );
        r.observe_labeled(
            "serve.latency",
            &[("tenant", &t)],
            12.0 * (tenant + 1) as f64,
        );
    }
    r.gauge_set_with(
        "bank.busy_frac",
        &[("bank", "3"), ("policy", "shift-aware")],
        0.375,
    );
    r
}

/// A two-request span forest exercising nesting, siblings, roots,
/// attributes and instants.
fn populated_spans() -> SpanTrace {
    let t = SpanTrace::new();
    t.set_enabled(true);
    let req = t.record(0, "request", 0, 120, &[("id", 0), ("group", 2)]);
    t.record(req, "queue", 0, 25, &[]);
    let d = t.record(req, "dispatch", 25, 110, &[]);
    let plan = t.record(
        d,
        "plan_shift",
        25,
        80,
        &[("distance", 32), ("parts", 2), ("cap", 16)],
    );
    t.record(plan, "sts_pulse", 25, 50, &[("distance", 16)]);
    t.record(plan, "sts_pulse", 50, 72, &[("distance", 16)]);
    t.record(plan, "pecc_verify", 72, 80, &[]);
    t.record(d, "mem_fill", 80, 110, &[]);
    t.record(0, "backpressure", 115, 115, &[("group", 2)]);
    let req2 = t.record(0, "request", 120, 160, &[("id", 1), ("group", 2)]);
    t.record(req2, "dispatch", 120, 160, &[]);
    t.record(0, "pecc_corrected", 13, 13, &[("k", 1)]);
    t.record(0, "back_shift", 14, 14, &[("steps", 1)]);
    t
}

#[test]
fn registry_json_round_trips_byte_identically() {
    // The unlabeled (`--metrics`) and labeled (`--labels`) dumps each
    // decode to their half of the snapshot and re-encode identically.
    let snap = populated_registry().snapshot();
    let (metrics, labels) = (snap.to_json(), snap.labeled_json());
    assert_json_stable(&metrics);
    assert_json_stable(&labels);
    let unlabeled = RegistrySnapshot::from_json(&metrics).expect("decode");
    let labeled = RegistrySnapshot::from_json(&labels).expect("decode");
    assert_eq!(unlabeled.metrics.len(), 3);
    assert_eq!(labeled.metrics.len(), 7);
    assert_eq!(unlabeled.to_json().pretty(), metrics.pretty());
    assert_eq!(labeled.labeled_json().pretty(), labels.pretty());
    let mut both = [unlabeled.metrics, labeled.metrics].concat();
    both.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    assert_eq!(both, snap.metrics);
}

#[test]
fn span_json_round_trips_byte_identically() {
    let snap = populated_spans().snapshot();
    let doc = snap.to_json();
    assert_json_stable(&doc);
    let back = SpanTraceSnapshot::from_json(&doc).expect("decode");
    assert_eq!(back, snap);
    assert_eq!(back.to_json().pretty(), doc.pretty());
}

#[test]
fn attribution_json_round_trips_byte_identically() {
    let mut t = AttributionTable::new(
        ["workload", "scheme", "policy"],
        [
            "queue_delay",
            "sts_shift",
            "pecc_verify",
            "back_shift",
            "array_access",
            "mem_fill",
        ],
    );
    t.push(["canneal", "p-ECC-S", "fcfs"], [50, 20, 6, 0, 30, 14], 120);
    t.push(
        ["dedup", "p-ECC-O", "shift-aware"],
        [10, 22, 8, 0, 40, 0],
        80,
    );
    let doc = t.to_json();
    assert_json_stable(&doc);
    let back = AttributionTable::from_json(&doc).expect("decode");
    assert_eq!(back, t);
    assert_eq!(back.to_json().pretty(), doc.pretty());
}

#[test]
fn span_children_nest_within_parents() {
    let snap = populated_spans().snapshot();
    for span in &snap.spans {
        if span.parent == 0 {
            continue;
        }
        let parent = snap.get(span.parent).expect("parent retained");
        assert!(
            span.start_cycle >= parent.start_cycle && span.end_cycle <= parent.end_cycle,
            "span {} [{}, {}) escapes parent {} [{}, {})",
            span.name,
            span.start_cycle,
            span.end_cycle,
            parent.name,
            parent.start_cycle,
            parent.end_cycle,
        );
    }
}

#[test]
fn child_cycle_sums_never_exceed_parents() {
    let snap = populated_spans().snapshot();
    for span in &snap.spans {
        let child_sum: u64 = snap.children_of(span.id).iter().map(|c| c.duration()).sum();
        assert!(
            child_sum <= span.duration(),
            "children of {} sum to {child_sum} > {}",
            span.name,
            span.duration(),
        );
        assert_eq!(snap.self_cycles(span), span.duration() - child_sum);
    }
}

#[test]
fn folded_stacks_conserve_total_cycles() {
    // Self-cycle attribution is exact: summing every folded-stack
    // value recovers exactly the root spans' total duration.
    let snap = populated_spans().snapshot();
    let folded = folded_stacks(&snap);
    let folded_total: u64 = folded
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    let root_total: u64 = snap
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.duration())
        .sum();
    assert_eq!(folded_total, root_total);
}

#[test]
fn chrome_trace_covers_every_span() {
    let snap = populated_spans().snapshot();
    let doc = chrome_trace(&snap);
    assert_json_stable(&doc);
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), snap.spans.len());
    let dur_total: u64 = events
        .iter()
        .map(|e| e.get("dur").unwrap().as_u64().unwrap())
        .sum();
    let span_total: u64 = snap.spans.iter().map(|s| s.duration()).sum();
    assert_eq!(dur_total, span_total);
    // Every attribute rides along in `args`.
    for (e, s) in events.iter().zip(&snap.spans) {
        for key in ["id", "group", "distance", "parts", "cap", "k", "steps"] {
            let arg = e
                .get("args")
                .and_then(|a| a.get("attrs"))
                .and_then(|a| a.get(key))
                .and_then(Json::as_u64);
            assert_eq!(arg, s.attr(key), "{} {key}", s.name);
        }
    }
}

#[test]
fn attribution_components_sum_to_total_within_one_cycle() {
    let mut t = AttributionTable::new(["cell"], ["a", "b"]);
    t.push(["exact"], [70, 30], 100);
    t.push(["off-by-one"], [70, 30], 101);
    assert!(t.max_residual() <= 1);
    for cell in &t.cells {
        assert!(cell.residual().unsigned_abs() <= 1, "cell {:?}", cell.keys);
    }
}
