//! Golden schedules: an FNV-1a digest of every completion, in callback
//! order, over a grid of policies, starvation bounds, bank counts and
//! queue depths. Any change to which request a bank dispatches, or
//! when, changes a digest; a pure host-time optimisation of the
//! scheduler must leave every one of them untouched.

use rtm_serve::{Completion, RequestSource, SchedPolicy, ServeConfig, ServeSim, SourcePoll};
use rtm_trace::{MixedTraceGenerator, WorkloadProfile};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A mixed-tenant trace that folds each completion it is told about
/// into a running digest.
struct DigestSource {
    mix: MixedTraceGenerator,
    hash: u64,
    completions: u64,
}

impl RequestSource for DigestSource {
    fn poll(&mut self, _now: u64) -> SourcePoll {
        self.mix
            .next()
            .map_or(SourcePoll::Exhausted, SourcePoll::Ready)
    }

    fn completed(&mut self, c: &Completion) {
        for v in [c.id, c.cycle, c.queue_delay, c.service, c.fill] {
            for b in v.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        self.completions += 1;
    }
}

/// Serves `cfg.requests` requests of `tenants` set-aliased canneal
/// tenants and returns the completion digest.
fn digest(cfg: ServeConfig, tenants: usize) -> u64 {
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let mut source = DigestSource {
        mix: MixedTraceGenerator::new(&vec![p; tenants], 2015),
        hash: FNV_OFFSET,
        completions: 0,
    };
    let r = ServeSim::new(cfg).run_source(&mut source);
    assert_eq!(r.requests, cfg.requests);
    assert_eq!(source.completions, cfg.requests);
    source.hash
}

/// (policy, starve limit, banks, queue depth, digest) — 4 tenants on
/// 4 clients with 8 outstanding requests each, 4,000 requests.
const GRID: [(SchedPolicy, u32, u32, usize, u64); 48] = [
    (SchedPolicy::Fcfs, 0, 1, 2, 0x128b2c089d49538a),
    (SchedPolicy::Fcfs, 0, 1, 16, 0xf42a611fb4c21936),
    (SchedPolicy::Fcfs, 0, 8, 2, 0x3831c7eab8ff0978),
    (SchedPolicy::Fcfs, 0, 8, 16, 0x4984e8e0af11a6ed),
    (SchedPolicy::Fcfs, 1, 1, 2, 0x128b2c089d49538a),
    (SchedPolicy::Fcfs, 1, 1, 16, 0xf42a611fb4c21936),
    (SchedPolicy::Fcfs, 1, 8, 2, 0x3831c7eab8ff0978),
    (SchedPolicy::Fcfs, 1, 8, 16, 0x4984e8e0af11a6ed),
    (SchedPolicy::Fcfs, 4, 1, 2, 0x128b2c089d49538a),
    (SchedPolicy::Fcfs, 4, 1, 16, 0xf42a611fb4c21936),
    (SchedPolicy::Fcfs, 4, 8, 2, 0x3831c7eab8ff0978),
    (SchedPolicy::Fcfs, 4, 8, 16, 0x4984e8e0af11a6ed),
    (SchedPolicy::Fcfs, u32::MAX, 1, 2, 0x128b2c089d49538a),
    (SchedPolicy::Fcfs, u32::MAX, 1, 16, 0xf42a611fb4c21936),
    (SchedPolicy::Fcfs, u32::MAX, 8, 2, 0x3831c7eab8ff0978),
    (SchedPolicy::Fcfs, u32::MAX, 8, 16, 0x4984e8e0af11a6ed),
    (SchedPolicy::FrFcfs, 0, 1, 2, 0x128b2c089d49538a),
    (SchedPolicy::FrFcfs, 0, 1, 16, 0xf42a611fb4c21936),
    (SchedPolicy::FrFcfs, 0, 8, 2, 0x3831c7eab8ff0978),
    (SchedPolicy::FrFcfs, 0, 8, 16, 0x4984e8e0af11a6ed),
    (SchedPolicy::FrFcfs, 1, 1, 2, 0x96c9b9c72d216494),
    (SchedPolicy::FrFcfs, 1, 1, 16, 0x7c4c0f7ac1015a74),
    (SchedPolicy::FrFcfs, 1, 8, 2, 0x704724edf27dd800),
    (SchedPolicy::FrFcfs, 1, 8, 16, 0x4a4e1ba51d0f3561),
    (SchedPolicy::FrFcfs, 4, 1, 2, 0x853bb7a37abaa97f),
    (SchedPolicy::FrFcfs, 4, 1, 16, 0xd8c844d93f7e5515),
    (SchedPolicy::FrFcfs, 4, 8, 2, 0x8fad0c7d88613657),
    (SchedPolicy::FrFcfs, 4, 8, 16, 0x54696c3f83224071),
    (SchedPolicy::FrFcfs, u32::MAX, 1, 2, 0x53175ac653e8a123),
    (SchedPolicy::FrFcfs, u32::MAX, 1, 16, 0xa895bf984c6a1595),
    (SchedPolicy::FrFcfs, u32::MAX, 8, 2, 0xd68f06547e0cc958),
    (SchedPolicy::FrFcfs, u32::MAX, 8, 16, 0x131abb797c54cb68),
    (SchedPolicy::ShiftAware, 0, 1, 2, 0x128b2c089d49538a),
    (SchedPolicy::ShiftAware, 0, 1, 16, 0xf42a611fb4c21936),
    (SchedPolicy::ShiftAware, 0, 8, 2, 0x3831c7eab8ff0978),
    (SchedPolicy::ShiftAware, 0, 8, 16, 0x4984e8e0af11a6ed),
    (SchedPolicy::ShiftAware, 1, 1, 2, 0xffeeec5cc652ecbe),
    (SchedPolicy::ShiftAware, 1, 1, 16, 0x975a36f755aa2a67),
    (SchedPolicy::ShiftAware, 1, 8, 2, 0x1e0d9ec30d376862),
    (SchedPolicy::ShiftAware, 1, 8, 16, 0x7c9a9842c5d16cfe),
    (SchedPolicy::ShiftAware, 4, 1, 2, 0xedecafdbde88966a),
    (SchedPolicy::ShiftAware, 4, 1, 16, 0xe7cc7e7ecd4d7497),
    (SchedPolicy::ShiftAware, 4, 8, 2, 0xd22ce2a34049cc2f),
    (SchedPolicy::ShiftAware, 4, 8, 16, 0x5dc058a6f432d74a),
    (SchedPolicy::ShiftAware, u32::MAX, 1, 2, 0x95778c0bb67f93d7),
    (SchedPolicy::ShiftAware, u32::MAX, 1, 16, 0x604d7a3905d2f9e3),
    (SchedPolicy::ShiftAware, u32::MAX, 8, 2, 0x815173af24e92b13),
    (SchedPolicy::ShiftAware, u32::MAX, 8, 16, 0xe2964f7c458c28cf),
];

/// (policy, digest) — the front door's deep-queue shape: 64 clients
/// with 64 outstanding requests each, queues 16 deep, unpaced.
const DEEP: [(SchedPolicy, u64); 3] = [
    (SchedPolicy::Fcfs, 0x560ec9253668be30),
    (SchedPolicy::FrFcfs, 0xcd877b253272e98e),
    (SchedPolicy::ShiftAware, 0xdf3471fe77aaabf0),
];

#[test]
fn shallow_grid_schedules_are_golden() {
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
                    got.push((policy, starve, banks, depth, digest(cfg, 4)));
                }
            }
        }
    }
    assert_eq!(got, GRID, "{got:#x?}");
}

#[test]
fn deep_queue_schedules_are_golden() {
    let got: Vec<_> = SchedPolicy::ALL
        .into_iter()
        .map(|policy| {
            let cfg = ServeConfig::new(policy)
                .with_requests(20_000)
                .with_clients(64, 64)
                .with_queue_depth(16)
                .with_paced(false);
            (policy, digest(cfg, 64))
        })
        .collect();
    assert_eq!(got, DEEP, "{got:#x?}");
}
