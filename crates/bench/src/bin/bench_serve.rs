//! Serving-layer scheduling benchmark: FCFS vs FR-FCFS vs shift-aware
//! on the contended four-tenant mixes, p-ECC-S adaptive LLC. Emits a
//! machine-readable `BENCH_serve.json` with one row per
//! (policy, workload); with `--check` it reruns the matrix on one
//! worker and on `--threads` workers and exits non-zero if any
//! statistic (wall times excluded — they are measurements, not model
//! output) differs between the two runs.
//!
//! A second section measures the serving layer's *host* throughput in
//! requests per second: the discrete-event loop ([`ServeSim`], the
//! scheduling-fidelity path) and the lock-free per-bank lane path
//! ([`rtm_serve::run_parallel`]) at 1/2/4/8 worker threads, on the
//! same pre-generated traces (generation is outside the timed region
//! for every mode). With `--check` the lane path is additionally gated
//! on bit-identity with its serial oracle, and `--min-speedup X` fails
//! the run unless the 8-thread lane path beats the event loop by at
//! least `X` on every workload.
//!
//! ```text
//! cargo run --release -p rtm-bench --bin bench-serve
//! cargo run --release -p rtm-bench --bin bench-serve -- \
//!     --quick --check --threads 8 --min-speedup 5 --out BENCH_serve.json
//! ```

use rtm_obs::json::Json;
use rtm_serve::{
    run_oracle, run_parallel, SchedPolicy, ServeConfig, ServeResult, ServeSim, ServeStats,
    ThroughputConfig,
};
use rtm_trace::{MemAccess, MixedTraceGenerator, WorkloadProfile};
use std::time::Instant;

/// Tenants per workload mix (matches the `serve` experiment).
const TENANTS: usize = 4;

/// Worker-thread ladder of the lane-path throughput section.
const THREAD_LADDER: [u32; 4] = [1, 2, 4, 8];

/// Timed repetitions per throughput point (fastest wall time wins, so
/// a scheduler hiccup cannot fail the gate).
const REPS: usize = 3;

/// Requests per workload in the throughput section — independent of
/// the matrix size so `--quick` still measures long enough runs to
/// amortise worker spawn and directory construction.
const TP_REQUESTS: u64 = 100_000;

struct Cell {
    policy: SchedPolicy,
    workload: &'static str,
    wall_ms: f64,
    result: ServeResult,
}

fn run_cell(workload: &str, policy: SchedPolicy, requests: u64) -> (f64, ServeResult) {
    let p = WorkloadProfile::by_name(workload).expect("known workload");
    let seed = rtm_util::rng::derive_seed(2015, seed_of(workload));
    let mut mix = MixedTraceGenerator::new(&vec![p; TENANTS], seed);
    let cfg = ServeConfig::new(policy).with_requests(requests);
    let start = Instant::now();
    let result = ServeSim::new(cfg).run(&mut mix);
    (start.elapsed().as_secs_f64() * 1e3, result)
}

fn seed_of(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

fn run_matrix(workloads: &[&'static str], requests: u64, threads: usize) -> Vec<Cell> {
    let grid: Vec<(&'static str, SchedPolicy)> = workloads
        .iter()
        .flat_map(|&w| SchedPolicy::ALL.into_iter().map(move |p| (w, p)))
        .collect();
    let results = rtm_par::parallel_map_with(threads, grid.len(), |i| {
        let (w, p) = grid[i];
        run_cell(w, p, requests)
    });
    grid.into_iter()
        .zip(results)
        .map(|((workload, policy), (wall_ms, result))| Cell {
            policy,
            workload,
            wall_ms,
            result,
        })
        .collect()
}

/// Pre-generates one workload's trace so trace synthesis is outside
/// every timed region (both the event-loop and the lane path consume
/// the identical, already-materialised request stream).
fn gen_trace(workload: &str, requests: u64) -> Vec<MemAccess> {
    let p = WorkloadProfile::by_name(workload).expect("known workload");
    let seed = rtm_util::rng::derive_seed(2015, seed_of(workload));
    MixedTraceGenerator::new(&vec![p; TENANTS], seed)
        .take(requests as usize)
        .collect()
}

/// Times the discrete-event scheduling path (saturating drive, FCFS)
/// over a pre-generated trace. Fastest of [`REPS`] runs.
fn time_event_loop(trace: &[MemAccess]) -> (f64, ServeResult) {
    let mut best: Option<(f64, ServeResult)> = None;
    for _ in 0..REPS {
        let cfg = ServeConfig::new(SchedPolicy::Fcfs)
            .with_paced(false)
            .with_requests(trace.len() as u64);
        let mut source = trace.iter().copied();
        let start = Instant::now();
        let result = ServeSim::new(cfg).run(&mut source);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _)| wall_ms < *b) {
            best = Some((wall_ms, result));
        }
    }
    best.expect("REPS > 0")
}

/// Ring capacity for the timed lane path: sized to the whole trace so
/// the front end never blocks on backpressure and the measurement is
/// pure data-path throughput, even when the host has fewer cores than
/// workers.
fn deep_rings(trace: &[MemAccess], threads: u32) -> ThroughputConfig {
    ThroughputConfig::new()
        .with_threads(threads)
        .with_ring_capacity(trace.len().next_power_of_two())
}

/// Times the lock-free lane path at a worker-thread count. Fastest of
/// [`REPS`] runs.
fn time_lane(trace: &[MemAccess], threads: u32) -> (f64, ServeStats) {
    let mut best: Option<(f64, ServeStats)> = None;
    for _ in 0..REPS {
        let cfg = deep_rings(trace, threads);
        let start = Instant::now();
        let stats = run_parallel(cfg, trace);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _)| wall_ms < *b) {
            best = Some((wall_ms, stats));
        }
    }
    best.expect("REPS > 0")
}

fn rps(requests: usize, wall_ms: f64) -> f64 {
    requests as f64 / (wall_ms / 1e3)
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out = std::path::PathBuf::from("BENCH_serve.json");
    let mut threads = rtm_par::available_parallelism();
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("error: --out needs a path");
                        std::process::exit(2);
                    })
                    .into();
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --threads needs a positive count");
                        std::process::exit(2);
                    });
            }
            "--min-speedup" => {
                min_speedup = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&x: &f64| x > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("error: --min-speedup needs a positive factor");
                            std::process::exit(2);
                        }),
                );
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!(
                    "usage: bench-serve [--quick] [--check] [--threads N] \
                     [--min-speedup X] [--out file.json]"
                );
                std::process::exit(2);
            }
        }
    }

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

    if check {
        eprintln!("determinism check: rerunning on 1 worker...");
        let base = run_matrix(&workloads, requests, 1);
        let diverged: Vec<&str> = cells
            .iter()
            .zip(&base)
            .filter(|(a, b)| a.result != b.result)
            .map(|(a, _)| a.workload)
            .collect();
        if !diverged.is_empty() {
            eprintln!(
                "DETERMINISM REGRESSION: {threads}-thread stats differ from \
                 1-thread baseline on: {}",
                diverged.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!("determinism check: {threads}-thread stats identical to 1-thread baseline");
    }

    // Headline: shift-aware vs FCFS per workload.
    for w in &workloads {
        let find = |pol| {
            cells
                .iter()
                .find(|c| c.workload == *w && c.policy == pol)
                .expect("cell ran")
        };
        let fcfs = find(SchedPolicy::Fcfs);
        let aware = find(SchedPolicy::ShiftAware);
        eprintln!(
            "{w}: shift-aware vs fcfs: throughput {:+.2}%, completion {:+.2}%, \
             shift cycles {:+.2}%, mean service {:+.2}%, total p99 {:+.2}%",
            (aware.result.throughput_req_per_kcycle() / fcfs.result.throughput_req_per_kcycle()
                - 1.0)
                * 100.0,
            (aware.result.cycles as f64 / fcfs.result.cycles as f64 - 1.0) * 100.0,
            (aware.result.llc.shift_cycles as f64 / fcfs.result.llc.shift_cycles.max(1) as f64
                - 1.0)
                * 100.0,
            (aware.result.service.mean() / fcfs.result.service.mean() - 1.0) * 100.0,
            (aware.result.total.p99 as f64 / fcfs.result.total.p99.max(1) as f64 - 1.0) * 100.0,
        );
    }

    // ---- Host-throughput section: event loop vs lock-free lane path.
    eprintln!(
        "throughput: event loop vs lane path on pre-generated traces \
         ({} workloads x {:?} threads x {TP_REQUESTS} requests, best of {REPS})...",
        workloads.len(),
        THREAD_LADDER
    );
    let mut tp_rows: Vec<Json> = Vec::new();
    let mut worst_speedup: Option<(f64, &str)> = None;
    for w in &workloads {
        let trace = gen_trace(w, TP_REQUESTS);
        if check {
            // The parallel lane path must be bit-identical to its
            // serial oracle at every thread count before its wall
            // clock means anything.
            let oracle = run_oracle(ThroughputConfig::new(), &trace);
            for t in THREAD_LADDER {
                let par = run_parallel(ThroughputConfig::new().with_threads(t), &trace);
                if par != oracle {
                    eprintln!(
                        "ORACLE REGRESSION: {w}: {t}-thread lane stats \
                         diverge from the serial oracle"
                    );
                    std::process::exit(1);
                }
            }
            eprintln!(
                "oracle check: {w}: lane path identical to oracle at \
                 {THREAD_LADDER:?}"
            );
        }
        let (base_ms, base) = time_event_loop(&trace);
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
        for t in THREAD_LADDER {
            let (ms, stats) = time_lane(&trace, t);
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
            if t == *THREAD_LADDER.last().unwrap() && worst_speedup.is_none_or(|(s, _)| speedup < s)
            {
                worst_speedup = Some((speedup, w));
            }
        }
        eprintln!("{line}");
    }
    if let Some(min) = min_speedup {
        let (speedup, w) = worst_speedup.expect("ladder ran");
        if speedup < min {
            eprintln!(
                "THROUGHPUT REGRESSION: lane path at {}T is only {speedup:.2}x \
                 the event loop on {w} (gate: {min}x)",
                THREAD_LADDER.last().unwrap()
            );
            std::process::exit(1);
        }
        eprintln!("throughput gate: worst 8-thread lane speedup {speedup:.2}x ({w}) >= {min}x");
    }

    let mut rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            let r = &c.result;
            Json::obj(vec![
                ("policy", Json::Str(c.policy.label().to_string())),
                ("workload", Json::Str(c.workload.to_string())),
                ("wall_ms", Json::Num(c.wall_ms)),
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
    let mut doc = Json::obj(vec![
        ("schema", Json::Str("rtm-bench-serve/v1".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("quick", Json::Bool(quick)),
        ("requests_per_cell", Json::Num(requests as f64)),
        ("tenants", Json::Num(TENANTS as f64)),
        ("rows", Json::Arr(rows)),
    ]);
    rtm_bench::stamp::stamp(&mut doc);
    if let Err(e) = rtm_obs::export::write_json(&out, &doc) {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", out.display());
}
