//! Golden summaries: an FNV-1a digest of every field of every
//! `ServeResult` (f64s by bits) over `golden.rs`'s grid and deep-queue
//! configurations, and of every `ServeStats` field of the lane path and
//! its serial oracle. `golden.rs` pins each schedule through its
//! completions; these pin what the run reports about it — the latency
//! summaries, counters, LLC and scale records, bank busy times and the
//! tenant attribution table. A change to how the serving layer keeps its
//! statistics must leave every digest untouched.

mod digest;

use digest::{result_digest, stats_digest};
use rtm_serve::{
    run_oracle, run_parallel, SchedPolicy, ServeConfig, ServeResult, ServeSim, ThroughputConfig,
};
use rtm_trace::{MemAccess, MixedTraceGenerator, WorkloadProfile};

/// `golden.rs`'s trace: `tenants` set-aliased canneal tenants, seed 2015.
fn serve(cfg: ServeConfig, tenants: usize) -> ServeResult {
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let r = ServeSim::new(cfg).run(&mut MixedTraceGenerator::new(&vec![p; tenants], 2015));
    assert_eq!(r.requests, cfg.requests);
    r
}

/// The contended four-tenant mix of the `serve-saturated` benchmark
/// workload, `n` requests.
fn saturated_mix(seed: u64, n: usize) -> Vec<MemAccess> {
    let profiles: Vec<WorkloadProfile> = ["canneal", "streamcluster", "ferret", "dedup"]
        .iter()
        .map(|n| WorkloadProfile::by_name(n).unwrap())
        .collect();
    MixedTraceGenerator::new(&profiles, seed).take_vec(n)
}

/// (policy, starve limit, banks, queue depth, digest) — `golden.rs`'s
/// shallow grid: 4 tenants on 4 clients with 8 outstanding requests
/// each, 4,000 requests.
const GRID: [(SchedPolicy, u32, u32, usize, u64); 48] = [
    (SchedPolicy::Fcfs, 0, 1, 2, 0xa08bfa1a3b4b6d66),
    (SchedPolicy::Fcfs, 0, 1, 16, 0x859a14a61488963a),
    (SchedPolicy::Fcfs, 0, 8, 2, 0x5eb5544972d8cf61),
    (SchedPolicy::Fcfs, 0, 8, 16, 0x153e8f5d97e97571),
    (SchedPolicy::Fcfs, 1, 1, 2, 0xa08bfa1a3b4b6d66),
    (SchedPolicy::Fcfs, 1, 1, 16, 0x859a14a61488963a),
    (SchedPolicy::Fcfs, 1, 8, 2, 0x5eb5544972d8cf61),
    (SchedPolicy::Fcfs, 1, 8, 16, 0x153e8f5d97e97571),
    (SchedPolicy::Fcfs, 4, 1, 2, 0xa08bfa1a3b4b6d66),
    (SchedPolicy::Fcfs, 4, 1, 16, 0x859a14a61488963a),
    (SchedPolicy::Fcfs, 4, 8, 2, 0x5eb5544972d8cf61),
    (SchedPolicy::Fcfs, 4, 8, 16, 0x153e8f5d97e97571),
    (SchedPolicy::Fcfs, u32::MAX, 1, 2, 0xa08bfa1a3b4b6d66),
    (SchedPolicy::Fcfs, u32::MAX, 1, 16, 0x859a14a61488963a),
    (SchedPolicy::Fcfs, u32::MAX, 8, 2, 0x5eb5544972d8cf61),
    (SchedPolicy::Fcfs, u32::MAX, 8, 16, 0x153e8f5d97e97571),
    (SchedPolicy::FrFcfs, 0, 1, 2, 0x57eca8e21ed5e11d),
    (SchedPolicy::FrFcfs, 0, 1, 16, 0x42e223415c0bcebd),
    (SchedPolicy::FrFcfs, 0, 8, 2, 0x30157c582f616342),
    (SchedPolicy::FrFcfs, 0, 8, 16, 0x4248ea594138ba26),
    (SchedPolicy::FrFcfs, 1, 1, 2, 0xa42b28dd423ddb77),
    (SchedPolicy::FrFcfs, 1, 1, 16, 0xbcfc0faae54b3c7d),
    (SchedPolicy::FrFcfs, 1, 8, 2, 0xf3c7a485e49624c1),
    (SchedPolicy::FrFcfs, 1, 8, 16, 0xab50d1eeb440f938),
    (SchedPolicy::FrFcfs, 4, 1, 2, 0x574a1fbfcab8f09e),
    (SchedPolicy::FrFcfs, 4, 1, 16, 0xb58a7f43b860b031),
    (SchedPolicy::FrFcfs, 4, 8, 2, 0xeaba970b15dc23ac),
    (SchedPolicy::FrFcfs, 4, 8, 16, 0x34a778b6dafe9794),
    (SchedPolicy::FrFcfs, u32::MAX, 1, 2, 0xbafae2d7eaec793a),
    (SchedPolicy::FrFcfs, u32::MAX, 1, 16, 0x4e3c59361791154),
    (SchedPolicy::FrFcfs, u32::MAX, 8, 2, 0x85269c8175683168),
    (SchedPolicy::FrFcfs, u32::MAX, 8, 16, 0xf61c0aa743654ce7),
    (SchedPolicy::ShiftAware, 0, 1, 2, 0xefe1035c9953033d),
    (SchedPolicy::ShiftAware, 0, 1, 16, 0x7b75b9bb89f9f5dd),
    (SchedPolicy::ShiftAware, 0, 8, 2, 0x77eb96a652e82e62),
    (SchedPolicy::ShiftAware, 0, 8, 16, 0x1612837f367f3fc6),
    (SchedPolicy::ShiftAware, 1, 1, 2, 0xe11580efa5713a97),
    (SchedPolicy::ShiftAware, 1, 1, 16, 0xf8f52a5610deaf84),
    (SchedPolicy::ShiftAware, 1, 8, 2, 0xbf9905499273fca9),
    (SchedPolicy::ShiftAware, 1, 8, 16, 0x2c0325860e50130d),
    (SchedPolicy::ShiftAware, 4, 1, 2, 0x78a697a9ea0050bf),
    (SchedPolicy::ShiftAware, 4, 1, 16, 0x4b24dafac8b3b7d3),
    (SchedPolicy::ShiftAware, 4, 8, 2, 0x555c6d5454db98a7),
    (SchedPolicy::ShiftAware, 4, 8, 16, 0x515f783fbe1ddafc),
    (SchedPolicy::ShiftAware, u32::MAX, 1, 2, 0x3b34777ef30aaac7),
    (SchedPolicy::ShiftAware, u32::MAX, 1, 16, 0xe602a4e8a842975e),
    (SchedPolicy::ShiftAware, u32::MAX, 8, 2, 0xf1126c4d5e7b7acc),
    (SchedPolicy::ShiftAware, u32::MAX, 8, 16, 0x82f01474cf5a2910),
];

/// (policy, digest) — `golden.rs`'s deep-queue shape: 64 clients with
/// 64 outstanding requests each, queues 16 deep, unpaced.
const DEEP: [(SchedPolicy, u64); 3] = [
    (SchedPolicy::Fcfs, 0x665d335252a8b025),
    (SchedPolicy::FrFcfs, 0xeb5e0d780fba7089),
    (SchedPolicy::ShiftAware, 0x112ded9c7e87a10f),
];

/// `run_oracle`'s `ServeStats` on 20,000 requests of the four-tenant
/// mix, seed 2015; `run_parallel` must match it at 1 and 4 workers.
const LANES: u64 = 0x3dece52e5d755f3e;

/// The 1M-request `serve-saturated` shape (shift-aware, unpaced, the
/// four-tenant mix at seed 2015): the full `ServeResult`, then
/// `run_oracle`'s `ServeStats` on the same trace.
const SATURATED: [u64; 2] = [0xd5d0956d87d86d73, 0xbf02220b5b38b1ab];

#[test]
fn shallow_grid_summaries_are_golden() {
    let mut got = Vec::new();
    for policy in SchedPolicy::ALL {
        for starve in [0, 1, 4, u32::MAX] {
            for banks in [1, 8] {
                for depth in [2, 16] {
                    let cfg = ServeConfig::new(policy)
                        .with_requests(4_000)
                        .with_clients(4, 8)
                        .with_starve_limit(starve)
                        .with_banks(banks)
                        .with_queue_depth(depth);
                    let digest = result_digest(&serve(cfg, 4));
                    got.push((policy, starve, banks, depth, digest));
                }
            }
        }
    }
    assert_eq!(got, GRID, "{got:#x?}");
}

#[test]
fn deep_queue_summaries_are_golden() {
    let got: Vec<_> = SchedPolicy::ALL
        .into_iter()
        .map(|policy| {
            let cfg = ServeConfig::new(policy)
                .with_requests(20_000)
                .with_clients(64, 64)
                .with_queue_depth(16)
                .with_paced(false);
            (policy, result_digest(&serve(cfg, 64)))
        })
        .collect();
    assert_eq!(got, DEEP, "{got:#x?}");
}

#[test]
fn lane_stats_are_golden() {
    let trace = saturated_mix(2015, 20_000);
    let cfg = ThroughputConfig::new();
    let oracle = stats_digest(&run_oracle(cfg, &trace));
    assert_eq!(oracle, LANES, "{oracle:#x}");
    for threads in [1, 4] {
        let par = stats_digest(&run_parallel(cfg.with_threads(threads), &trace));
        assert_eq!(par, LANES, "threads = {threads}: {par:#x}");
    }
}

#[test]
#[ignore = "1M requests; run with --release -- --include-ignored"]
fn saturated_million_request_summaries_are_golden() {
    let trace = saturated_mix(2015, 1_000_000);
    let cfg = ServeConfig::new(SchedPolicy::ShiftAware)
        .with_paced(false)
        .with_requests(trace.len() as u64);
    let r = ServeSim::new(cfg).run(&mut trace.iter().copied());
    assert_eq!(r.requests, 1_000_000);
    let got = [
        result_digest(&r),
        stats_digest(&run_oracle(ThroughputConfig::new(), &trace)),
    ];
    assert_eq!(got, SATURATED, "{got:#x?}");
}
