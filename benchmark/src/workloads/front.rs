//! `frontdoor-10k`: 10k tenant sessions arriving on a schedule in
//! simulated time, admitted by SLO-class token buckets through the
//! front door into the serving layer (shift-aware), with a 1024-request
//! admission window that keeps the serve queues deep.

use std::hint::black_box;

use super::serve::{digest as serve_digest, llc_spec, serve_metrics};
use super::{end_to_end, ns_per, timed, timed_reps, timed_setup, timed_warm, Ctx, Rep};
use crate::replay::{replay_llc, RecordingSource};
use crate::report::Report;
use crate::stats::{ratio, Digest};
use rtm_front::{run_front, FrontConfig, FrontDoor, FrontResult};
use rtm_serve::{SchedPolicy, ServeSim};

const TENANTS: u32 = 10_000;

/// Offered requests per rep. At 10k tenants and window 1024 the serve
/// layer spends ~70 µs per request, so 30k offered is ~2 s per rep on
/// the reference host; the 120k default of `FrontConfig::new` would be
/// ~8 s, too long for a median of several reps in one run.
const OFFERED: u64 = 30_000;

const QUICK_TENANTS: u32 = 500;
const QUICK_OFFERED: u64 = 2_000;

const POLICY: SchedPolicy = SchedPolicy::ShiftAware;

fn config(ctx: &Ctx) -> FrontConfig {
    let (tenants, offered) = if ctx.quick {
        (QUICK_TENANTS, QUICK_OFFERED)
    } else {
        (TENANTS, OFFERED)
    };
    FrontConfig::new(tenants)
        .with_seed(ctx.seed)
        .with_offered(offered)
}

fn digest(r: &FrontResult) -> u64 {
    let mut d = Digest::default();
    d.add(serve_digest(&r.serve));
    for c in &r.classes {
        for v in [c.admitted, c.shed, c.deferred, c.completed, c.latency.p99] {
            d.add(v);
        }
    }
    d.value()
}

fn check_conservation(report: &mut Report, cfg: &FrontConfig, r: &FrontResult) {
    report.checks.check(
        "front door: admitted + shed = offered",
        r.admitted() + r.shed() == cfg.offered,
    );
    report.checks.check(
        "front door: completed = admitted",
        r.completed() == r.admitted(),
    );
}

fn record_model(report: &mut Report, r: &FrontResult) {
    report.digest = digest(r);
    report.model = vec![
        ("admitted", r.admitted() as f64),
        ("shed", r.shed() as f64),
        ("cycles", r.serve.cycles as f64),
    ];
}

/// End-to-end run. Set-up builds the door (every tenant session) and
/// the simulator behind it; operations are offered requests.
pub fn measure(ctx: &Ctx, report: &mut Report) {
    let (setup, cfg) = timed_setup(|| {
        let cfg = config(ctx);
        black_box(FrontDoor::new(&cfg));
        black_box(ServeSim::new(cfg.serve_config(POLICY)));
        cfg
    });
    let mut last = None;
    let reps = timed_reps(ctx.seconds, || {
        let r = run_front(&cfg, POLICY);
        let rep = Rep {
            ops: cfg.offered,
            digest: digest(&r),
        };
        last = Some(r);
        rep
    });
    end_to_end(report, setup, &reps);
    let r = last.expect("at least one rep");
    check_conservation(report, &cfg, &r);
    record_model(report, &r);
}

/// Per-layer run: plain reps, one with the door wrapped in a
/// recording source; the door replayed alone (and its arrival stream
/// alone), the LLC replayed in reconstructed dispatch order.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let cfg = config(ctx);
    let serve_cfg = cfg.serve_config(POLICY);
    let (plain_s, plain) = timed_warm(|| run_front(&cfg, POLICY));
    let mut source = RecordingSource::new(FrontDoor::new(&cfg));
    let (run_s, serve) = timed(|| ServeSim::new(serve_cfg).run_source(&mut source));
    let (door, rec) = source.into_inner();
    let r = door.finish(serve);
    report
        .checks
        .check("recording the door leaves the run unchanged", r == plain);
    check_conservation(report, &cfg, &r);

    let source_s = rec.replay(&mut FrontDoor::new(&cfg), &mut report.checks);
    let (arrivals_s, arrivals) = timed(|| cfg.arrivals().map(black_box).count() as u64);
    report.checks.check(
        "arrival stream offers every request",
        arrivals == cfg.offered,
    );
    let log = rec.llc_log(serve_cfg.banks);
    let layers = replay_llc(&llc_spec(&serve_cfg), &log, &mut report.checks);
    let offered = cfg.offered;
    serve_metrics(report, &r.serve, offered, run_s, source_s, &layers);
    report.set("front.arrivals_ns_per_req", ns_per(arrivals_s, offered));
    report.set(
        "front.admit_ns_per_req",
        ns_per(source_s - arrivals_s, offered),
    );
    // The serve layer's self time behind the door, under the door's name.
    let serve_self = report
        .value("serve.self_ns_per_req")
        .expect("serve metrics recorded");
    report.set("front.serve_self_ns_per_req", serve_self);
    report.set("front.shed_ratio", ratio(r.shed() as f64, offered as f64));
    report.set("front.peak_in_flight", rec.peak_outstanding as f64);
    report.set("traced.overhead_ratio", run_s / plain_s);
    record_model(report, &r);
}
