//! `serve-saturated`: a pre-generated four-tenant mix through the
//! discrete-event serving layer with shift-aware scheduling and a
//! saturating closed loop (4 clients × 8 outstanding, no think time),
//! plus the same trace on the lock-free lane path.

use std::hint::black_box;

use super::{
    end_to_end, llc_metrics, ns_per, timed, timed_reps, timed_setup, timed_warm, Ctx, Rep,
};
use crate::replay::{replay_llc, LlcLayers, LlcSpec, RecordingSource};
use crate::report::Report;
use crate::stats::{median, ratio, Digest};
use rtm_serve::{
    run_oracle, run_parallel, SchedPolicy, ServeConfig, ServeResult, ServeSim, ThroughputConfig,
};
use rtm_trace::{MemAccess, MixedTraceGenerator, WorkloadProfile};

/// The contended multi-programmed mix `bench-serve` uses: set-aliased
/// tenants with distinct working sets and write mixes.
const TENANTS: [&str; 4] = ["canneal", "streamcluster", "ferret", "dedup"];

/// Requests per rep: ~1.7 s of event loop on the reference host.
const REQUESTS: usize = 1_000_000;

const QUICK_REQUESTS: usize = 20_000;

/// Lane-path runs per traced measurement (median).
const LANE_REPS: usize = 3;

fn gen_trace(ctx: &Ctx) -> Vec<MemAccess> {
    let profiles: Vec<WorkloadProfile> = TENANTS
        .iter()
        .map(|n| WorkloadProfile::by_name(n).expect("known profile"))
        .collect();
    let n = if ctx.quick { QUICK_REQUESTS } else { REQUESTS };
    MixedTraceGenerator::new(&profiles, ctx.seed).take_vec(n)
}

fn config(requests: usize) -> ServeConfig {
    ServeConfig::new(SchedPolicy::ShiftAware)
        .with_paced(false)
        .with_requests(requests as u64)
}

/// Digest of one serving run's model outputs.
pub fn digest(r: &ServeResult) -> u64 {
    let mut d = Digest::default();
    for v in [
        r.requests,
        r.cycles,
        r.llc.shift_cycles,
        r.llc.cache.hits,
        r.queue_delay.p99,
        r.service.p99,
        r.total.p99,
        r.backpressure_stalls,
        r.zero_shift_dispatches,
    ] {
        d.add(v);
    }
    d.value()
}

/// End-to-end run. Set-up generates the trace and builds the simulator.
pub fn measure(ctx: &Ctx, report: &mut Report) {
    let (setup, trace) = timed_setup(|| {
        let trace = gen_trace(ctx);
        black_box(ServeSim::new(config(trace.len())));
        trace
    });
    let cfg = config(trace.len());
    let mut last = None;
    let reps = timed_reps(ctx.seconds, || {
        let r = ServeSim::new(cfg).run(&mut trace.iter().copied());
        let rep = Rep {
            ops: r.requests,
            digest: digest(&r),
        };
        last = Some(r);
        rep
    });
    end_to_end(report, setup, &reps);
    let r = last.expect("at least one rep");
    report
        .checks
        .check("every request completes", r.requests == trace.len() as u64);
    let oracle = run_oracle(ThroughputConfig::new(), &trace);
    report.checks.check(
        "run_parallel equals run_oracle",
        run_parallel(lanes(&trace, ctx.nproc), &trace) == oracle,
    );
    record_model(report, &r);
}

fn record_model(report: &mut Report, r: &ServeResult) {
    report.digest = digest(r);
    report.model = vec![
        ("cycles", r.cycles as f64),
        ("shift_cycles", r.llc.shift_cycles as f64),
        ("p99_cycles", r.total.p99 as f64),
    ];
}

/// The lane path at `threads` workers, rings deep enough that the
/// front end never waits (as `bench-serve` times it).
fn lanes(trace: &[MemAccess], threads: usize) -> ThroughputConfig {
    ThroughputConfig::new()
        .with_threads(threads as u32)
        .with_ring_capacity(trace.len().next_power_of_two())
}

/// Records the `serve.*` metrics of a recorded run: the source and LLC
/// from their replays, the event loop's self time as the rest.
pub fn serve_metrics(
    report: &mut Report,
    r: &ServeResult,
    ops: u64,
    run_s: f64,
    source_s: f64,
    layers: &LlcLayers,
) {
    report.set("serve.source_ns_per_req", ns_per(source_s, ops));
    report.set("serve.llc_ns_per_req", ns_per(layers.llc_s, ops));
    report.set(
        "serve.self_ns_per_req",
        ns_per(run_s - source_s - layers.llc_s, ops),
    );
    report.set("serve.peak_queued", r.peak_queued as f64);
    report.set("serve.backpressure_stalls", r.backpressure_stalls as f64);
    report.set("serve.queue_delay_p99_cycles", r.queue_delay.p99 as f64);
    llc_metrics(report, layers);
}

/// The LLC a serving configuration builds.
pub fn llc_spec(cfg: &ServeConfig) -> LlcSpec {
    LlcSpec {
        kind: cfg.protection,
        policy: cfg.shift_policy,
        banks: cfg.banks,
        fault_seed: None,
    }
}

/// Per-layer run: plain reps, one with a recording source, replays
/// of the source and of the LLC calls in reconstructed dispatch order,
/// and the lane path against its serial oracle.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let trace = gen_trace(ctx);
    let cfg = config(trace.len());
    let (plain_s, plain) = timed_warm(|| ServeSim::new(cfg).run(&mut trace.iter().copied()));
    let mut source = RecordingSource::new(trace.iter().copied());
    let (run_s, r) = timed(|| ServeSim::new(cfg).run_source(&mut source));
    report
        .checks
        .check("recording the source leaves the run unchanged", r == plain);
    let (_, rec) = source.into_inner();
    let source_s = rec.replay(&mut trace.iter().copied(), &mut report.checks);
    let log = rec.llc_log(cfg.banks);
    drop(rec);
    let layers = replay_llc(&llc_spec(&cfg), &log, &mut report.checks);
    serve_metrics(report, &r, r.requests, run_s, source_s, &layers);
    report.set("traced.overhead_ratio", run_s / plain_s);

    let n = trace.len() as f64;
    let mut oracle_s = Vec::with_capacity(LANE_REPS);
    let mut lane_s = Vec::with_capacity(LANE_REPS);
    let mut lanes_match = true;
    let mut fused = 0;
    for _ in 0..LANE_REPS {
        let (s, oracle) = timed(|| run_oracle(ThroughputConfig::new(), &trace));
        oracle_s.push(s);
        let (s, par) = timed(|| run_parallel(lanes(&trace, ctx.nproc), &trace));
        lane_s.push(s);
        lanes_match &= par == oracle;
        fused = par.fused_dispatches;
    }
    report
        .checks
        .check("run_parallel equals run_oracle", lanes_match);
    let lane_ops = n / median(&lane_s);
    let oracle_ops = n / median(&oracle_s);
    report.set("lane.ops_per_s", lane_ops);
    report.set("lane.oracle_ops_per_s", oracle_ops);
    report.set(
        "lane.parallel_efficiency",
        lane_ops / (oracle_ops * ctx.nproc as f64),
    );
    report.set("lane.fused_ratio", ratio(fused as f64, n));
    record_model(report, &r);
}
