//! Serving-layer scheduling benchmark: FCFS vs FR-FCFS vs shift-aware
//! on the contended four-tenant mixes, p-ECC-S adaptive LLC. One row
//! per (policy, workload); the matrix reruns on one worker and fails
//! if any statistic (wall times excluded — they are measurements, not
//! model output) differs from the `--threads` run.
//!
//! A second section measures the serving layer's *host* throughput in
//! requests per second: the discrete-event loop ([`ServeSim`], the
//! scheduling-fidelity path) and the lock-free per-bank lane path
//! ([`rtm_serve::run_parallel`]) at 1/2/4/8 worker threads, on the
//! same pre-generated traces (generation is outside the timed region
//! for every mode). The lane path must be bit-identical to its serial
//! oracle, and the 8-thread lane path must beat the event loop by at
//! least [`MIN_SPEEDUP`] on every workload.

use crate::{run_grid, timed, Opts};
use rtm_obs::json::Json;
use rtm_serve::{
    run_oracle, run_parallel, SchedPolicy, ServeConfig, ServeResult, ServeSim, ServeStats,
    ThroughputConfig,
};
use rtm_trace::{MemAccess, MixedTraceGenerator, WorkloadProfile};

/// Tenants per workload mix (matches the `serve` experiment).
const TENANTS: usize = 4;

/// Worker-thread ladder of the lane-path throughput section.
const THREAD_LADDER: [u32; 4] = [1, 2, 4, 8];

/// Timed rounds per workload. Each round times the event loop once and
/// the lane path once per [`THREAD_LADDER`] count, and each mode keeps
/// its fastest round, so a scheduler hiccup cannot fail the gate and
/// host load that comes and goes lands on both sides of the speedup.
const REPS: usize = 3;

/// Requests per workload in the throughput section — independent of
/// the matrix size so `--quick` still measures long enough runs to
/// amortise worker spawn and directory construction.
const TP_REQUESTS: u64 = 100_000;

/// Least lane-path speedup over the event loop, at the top of
/// [`THREAD_LADDER`], on every workload (EXPERIMENTS.md "Gate
/// rationale" records its measured margin).
const MIN_SPEEDUP: f64 = 2.5;

/// One matrix cell: workload, policy, wall ms and the run.
type Cell = (&'static str, SchedPolicy, f64, ServeResult);

/// The `serve` experiment's contended mix: [`TENANTS`] copies of one
/// workload, seeded by its name.
fn mix_of(workload: &str) -> MixedTraceGenerator {
    let p = WorkloadProfile::by_name(workload).expect("known workload");
    let seed = rtm_util::rng::derive_seed(2015, rtm_trace::seed_of(workload));
    MixedTraceGenerator::new(&vec![p; TENANTS], seed)
}

fn run_matrix(workloads: &[&'static str], requests: u64, threads: usize) -> Vec<Cell> {
    run_grid(workloads, &SchedPolicy::ALL, threads, |w, policy| {
        ServeSim::new(ServeConfig::new(policy).with_requests(requests)).run(&mut mix_of(w))
    })
}

/// Pre-generates one workload's trace so trace synthesis is outside
/// every timed region (both the event-loop and the lane path consume
/// the identical, already-materialised request stream).
fn gen_trace(workload: &str, requests: u64) -> Vec<MemAccess> {
    mix_of(workload).take(requests as usize).collect()
}

/// Times `run` once, keeping it in `best` (wall ms, output) when it is
/// the fastest so far.
fn keep_fastest<T>(best: &mut Option<(f64, T)>, run: impl FnOnce() -> T) {
    let (secs, out) = timed(run);
    if best.as_ref().is_none_or(|&(ms, _)| secs * 1e3 < ms) {
        *best = Some((secs * 1e3, out));
    }
}

/// Runs the discrete-event scheduling path (saturating drive, FCFS)
/// over a pre-generated trace.
fn event_loop(trace: &[MemAccess]) -> ServeResult {
    let cfg = ServeConfig::new(SchedPolicy::Fcfs)
        .with_paced(false)
        .with_requests(trace.len() as u64);
    ServeSim::new(cfg).run(&mut trace.iter().copied())
}

/// Runs the lock-free lane path at a worker-thread count. Its rings
/// hold the whole trace, so the front end never blocks on
/// backpressure and the measurement is pure data-path throughput, even
/// when the host has fewer cores than workers.
fn lane(trace: &[MemAccess], threads: u32) -> ServeStats {
    let cfg = ThroughputConfig::new()
        .with_threads(threads)
        .with_ring_capacity(trace.len().next_power_of_two());
    run_parallel(cfg, trace)
}

fn rps(requests: usize, wall_ms: f64) -> f64 {
    requests as f64 / (wall_ms / 1e3)
}

pub(crate) fn run(opts: &Opts) -> Result<Json, String> {
    let (quick, threads) = (opts.quick, opts.threads);
    let workloads: Vec<&'static str> = if quick {
        vec!["canneal", "streamcluster", "ferret", "dedup"]
    } else {
        WorkloadProfile::parsec().iter().map(|p| p.name).collect()
    };
    let requests: u64 = if quick { 10_000 } else { 60_000 };

    eprintln!(
        "serving matrix: {} workloads x {} policies x {requests} requests ({threads} threads)...",
        workloads.len(),
        SchedPolicy::ALL.len()
    );
    let cells = run_matrix(&workloads, requests, threads);

    eprintln!("determinism check: rerunning on 1 worker...");
    let base = run_matrix(&workloads, requests, 1);
    let diverged: Vec<&str> = cells
        .iter()
        .zip(&base)
        .filter(|(a, b)| a.3 != b.3)
        .map(|((w, ..), _)| *w)
        .collect();
    if !diverged.is_empty() {
        return Err(format!(
            "DETERMINISM REGRESSION: {threads}-thread stats differ from \
             1-thread baseline on: {}",
            diverged.join(", ")
        ));
    }
    eprintln!("determinism check: {threads}-thread stats identical to 1-thread baseline");

    // Headline: shift-aware vs FCFS per workload.
    for w in &workloads {
        let find = |pol| {
            let (.., r) = cells
                .iter()
                .find(|(cw, cp, ..)| cw == w && *cp == pol)
                .expect("cell ran");
            r
        };
        let fcfs = find(SchedPolicy::Fcfs);
        let aware = find(SchedPolicy::ShiftAware);
        eprintln!(
            "{w}: shift-aware vs fcfs: throughput {:+.2}%, completion {:+.2}%, \
             shift cycles {:+.2}%, mean service {:+.2}%, total p99 {:+.2}%",
            (aware.throughput_req_per_kcycle() / fcfs.throughput_req_per_kcycle() - 1.0) * 100.0,
            (aware.cycles as f64 / fcfs.cycles as f64 - 1.0) * 100.0,
            (aware.llc.shift_cycles as f64 / fcfs.llc.shift_cycles.max(1) as f64 - 1.0) * 100.0,
            (aware.service.mean() / fcfs.service.mean() - 1.0) * 100.0,
            (aware.total.p99 as f64 / fcfs.total.p99.max(1) as f64 - 1.0) * 100.0,
        );
    }

    // ---- Host-throughput section: event loop vs lock-free lane path.
    eprintln!(
        "throughput: event loop vs lane path on pre-generated traces \
         ({} workloads x {:?} threads x {TP_REQUESTS} requests, best of {REPS} interleaved rounds)...",
        workloads.len(),
        THREAD_LADDER
    );
    let top = *THREAD_LADDER.last().expect("non-empty ladder");
    let mut tp_rows: Vec<Json> = Vec::new();
    let mut worst_speedup: Option<(f64, &str)> = None;
    for w in &workloads {
        let trace = gen_trace(w, TP_REQUESTS);
        // The parallel lane path must be bit-identical to its serial
        // oracle at every thread count before its wall clock means
        // anything.
        let oracle = run_oracle(ThroughputConfig::new(), &trace);
        for t in THREAD_LADDER {
            let par = run_parallel(ThroughputConfig::new().with_threads(t), &trace);
            if par != oracle {
                return Err(format!(
                    "ORACLE REGRESSION: {w}: {t}-thread lane stats \
                     diverge from the serial oracle"
                ));
            }
        }
        eprintln!("oracle check: {w}: lane path identical to oracle at {THREAD_LADDER:?}");
        let mut best_base = None;
        let mut best_lanes: Vec<Option<(f64, ServeStats)>> =
            THREAD_LADDER.iter().map(|_| None).collect();
        for _ in 0..REPS {
            keep_fastest(&mut best_base, || event_loop(&trace));
            for (best, &t) in best_lanes.iter_mut().zip(&THREAD_LADDER) {
                keep_fastest(best, || lane(&trace, t));
            }
        }
        let (base_ms, base) = best_base.expect("REPS > 0");
        let base_rps = rps(trace.len(), base_ms);
        tp_rows.push(Json::obj(vec![
            ("mode", Json::Str("event-loop".to_string())),
            ("workload", Json::Str(w.to_string())),
            ("threads", Json::Str("1".to_string())),
            ("wall_ms", Json::Num(base_ms)),
            ("throughput_req_per_sec", Json::Num(base_rps)),
            ("requests", Json::Num(base.requests as f64)),
            ("cycles", Json::Num(base.cycles as f64)),
            ("service_p99", Json::Num(base.service.p99 as f64)),
        ]));
        let mut line = format!("{w}: event-loop {base_rps:.0} req/s; lane");
        for (best, t) in best_lanes.into_iter().zip(THREAD_LADDER) {
            let (ms, stats) = best.expect("REPS > 0");
            let lane_rps = rps(trace.len(), ms);
            let speedup = lane_rps / base_rps;
            line += &format!(" {t}T {lane_rps:.0} ({speedup:.1}x)");
            tp_rows.push(Json::obj(vec![
                ("mode", Json::Str("lane".to_string())),
                ("workload", Json::Str(w.to_string())),
                ("threads", Json::Str(t.to_string())),
                ("wall_ms", Json::Num(ms)),
                ("throughput_req_per_sec", Json::Num(lane_rps)),
                ("speedup", Json::Num(speedup)),
                ("requests", Json::Num(stats.requests as f64)),
                ("makespan_cycles", Json::Num(stats.makespan_cycles as f64)),
                ("service_p99", Json::Num(stats.service.p99 as f64)),
                ("fused_dispatches", Json::Num(stats.fused_dispatches as f64)),
                (
                    "batch_saved_cycles",
                    Json::Num(stats.batch_saved_cycles as f64),
                ),
            ]));
            if t == top && worst_speedup.is_none_or(|(s, _)| speedup < s) {
                worst_speedup = Some((speedup, w));
            }
        }
        eprintln!("{line}");
    }
    let (speedup, w) = worst_speedup.expect("ladder ran");
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "THROUGHPUT REGRESSION: lane path at {top}T is only {speedup:.2}x \
             the event loop on {w} (gate: {MIN_SPEEDUP}x)"
        ));
    }
    eprintln!("throughput gate: worst 8-thread lane speedup {speedup:.2}x ({w}) >= {MIN_SPEEDUP}x");

    let mut rows: Vec<Json> = cells
        .iter()
        .map(|(workload, policy, wall_ms, r)| {
            Json::obj(vec![
                ("policy", Json::Str(policy.label().to_string())),
                ("workload", Json::Str(workload.to_string())),
                ("wall_ms", Json::Num(*wall_ms)),
                ("p99_latency_cycles", Json::Num(r.total.p99 as f64)),
                (
                    "throughput_req_per_kcycle",
                    Json::Num(r.throughput_req_per_kcycle()),
                ),
                ("requests", Json::Num(r.requests as f64)),
                ("cycles", Json::Num(r.cycles as f64)),
                ("queue_delay_p99", Json::Num(r.queue_delay.p99 as f64)),
                ("service_p50", Json::Num(r.service.p50 as f64)),
                ("service_p99", Json::Num(r.service.p99 as f64)),
                ("mean_service", Json::Num(r.service.mean())),
                ("total_p50", Json::Num(r.total.p50 as f64)),
                ("read_total_p99", Json::Num(r.read_total.p99 as f64)),
                ("mean_total", Json::Num(r.total.mean())),
                ("shift_cycles", Json::Num(r.llc.shift_cycles as f64)),
                (
                    "zero_shift_dispatches",
                    Json::Num(r.zero_shift_dispatches as f64),
                ),
                (
                    "backpressure_stalls",
                    Json::Num(r.backpressure_stalls as f64),
                ),
            ])
        })
        .collect();
    rows.append(&mut tp_rows);
    Ok(Json::obj(vec![
        ("schema", Json::Str("rtm-bench-serve/v1".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("quick", Json::Bool(quick)),
        ("requests_per_cell", Json::Num(requests as f64)),
        ("tenants", Json::Num(TENANTS as f64)),
        ("rows", Json::Arr(rows)),
    ]))
}
