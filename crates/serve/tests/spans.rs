//! The request span tree `ServeSim` records into the process-global
//! span store. It lives in a test binary of its own: any other
//! `ServeSim` run in the same process while the store is enabled would
//! record its spans too.

use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
use rtm_trace::{TraceGenerator, WorkloadProfile};

#[test]
fn spans_record_the_request_tree_when_enabled() {
    let spans = rtm_obs::global().spans();
    spans.reset();
    spans.set_enabled(true);
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let cfg = ServeConfig::new(SchedPolicy::Fcfs).with_requests(200);
    let r = ServeSim::new(cfg).run(&mut TraceGenerator::new(p, 2015));
    let snap = spans.snapshot();
    spans.set_enabled(false);
    spans.reset();
    assert_eq!(r.requests, 200);
    assert_eq!(snap.dropped, 0);
    let count = |name: &str| snap.spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("request"), 200);
    assert_eq!(count("backpressure") as u64, r.backpressure_stalls);
    assert_eq!(count("queue"), 200);
    assert_eq!(count("dispatch"), 200);
    assert!(
        count("plan_shift") > 0,
        "controller spans nest under dispatch"
    );
    // Every dispatch hangs off a request, every plan_shift off a
    // dispatch, and children stay inside their parents' extents. The
    // only other roots are back-pressure instants.
    for s in &snap.spans {
        if s.parent == 0 {
            match s.name.as_str() {
                "request" => {
                    assert!(s.attr("id").is_some_and(|id| id < 200));
                    assert!(s.attr("group").is_some());
                }
                "backpressure" => {
                    assert_eq!(s.duration(), 0, "a stall is an instant");
                    assert!(s.attr("group").is_some());
                }
                other => panic!("unexpected root {other}"),
            }
            continue;
        }
        let p = snap.get(s.parent).expect("parent retained");
        assert!(s.start_cycle >= p.start_cycle && s.end_cycle <= p.end_cycle);
        match s.name.as_str() {
            "queue" | "dispatch" | "mem_fill" => assert_eq!(p.name, "request"),
            "plan_shift" => assert_eq!(p.name, "dispatch"),
            "sts_pulse" | "pecc_verify" => assert_eq!(p.name, "plan_shift"),
            other => panic!("unexpected span {other}"),
        }
    }
}
