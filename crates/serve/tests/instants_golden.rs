//! Golden instants: when the event loop polls, admits and retires.
//!
//! `golden.rs` pins every schedule through its completions, but its
//! sources ignore the clock, so it cannot see at which instants
//! `ServeSim` asks its source for work. A clock-aware source (the front
//! door's token buckets) can: it answers differently at different
//! instants. The source here answers `NotBefore` on a deterministic
//! schedule, waits on a completion when its own window is full, and
//! folds every `poll(now)` with its answer, every `admitted(id, now)`
//! and every completion into one digest. An event loop that skips an
//! instant, visits an extra one, polls in a different phase or retires
//! requests in a different order changes a digest here.

mod digest;

use digest::{Fnv, FNV_OFFSET};
use rtm_serve::{Completion, RequestSource, SchedPolicy, ServeConfig, ServeSim, SourcePoll};
use rtm_trace::{MixedTraceGenerator, WorkloadProfile};

/// Requests each source may have admitted and not yet seen complete;
/// below the 32 the clients could hold, so the window binds.
const WINDOW: u64 = 20;

/// A mixed-tenant source with a clock-dependent offer schedule.
struct PacedSource {
    mix: MixedTraceGenerator,
    hash: Fnv,
    /// Earliest cycle the next request may be offered.
    next_ready: u64,
    admitted: u64,
    completed: u64,
}

impl PacedSource {
    /// Cycles to hold back after admitting `id`, from a mixing hash of
    /// the id: 0 (offer again at once) half the time, else 1 to 6, short
    /// enough that the clients' think times bind under a paced drive.
    fn gap(id: u64) -> u64 {
        let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % 12).saturating_sub(5)
    }
}

impl RequestSource for PacedSource {
    fn poll(&mut self, now: u64) -> SourcePoll {
        let answer = if self.admitted - self.completed >= WINDOW {
            SourcePoll::NotBefore(u64::MAX)
        } else if now < self.next_ready {
            SourcePoll::NotBefore(self.next_ready)
        } else {
            self.mix
                .next()
                .map_or(SourcePoll::Exhausted, SourcePoll::Ready)
        };
        self.hash.add(0);
        self.hash.add(now);
        match answer {
            SourcePoll::Ready(a) => {
                self.hash.add(a.addr);
            }
            SourcePoll::NotBefore(t) => {
                self.hash.add(t);
            }
            SourcePoll::Exhausted => self.hash.add(u64::MAX),
        }
        answer
    }

    fn admitted(&mut self, id: u64, now: u64) {
        self.hash.add(1);
        self.hash.add(id);
        self.hash.add(now);
        self.admitted += 1;
        self.next_ready = now + Self::gap(id);
    }

    fn completed(&mut self, c: &Completion) {
        self.hash.add(2);
        for v in [c.id, c.cycle, c.queue_delay, c.service, c.fill] {
            self.hash.add(v);
        }
        self.completed += 1;
    }
}

/// Serves 4,000 requests of four set-aliased canneal tenants through
/// the paced source; returns its digest with the run's final cycle.
fn digest(cfg: ServeConfig) -> u64 {
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let mut source = PacedSource {
        mix: MixedTraceGenerator::new(&[p, p, p, p], 2015),
        hash: Fnv(FNV_OFFSET),
        next_ready: 0,
        admitted: 0,
        completed: 0,
    };
    let r = ServeSim::new(cfg).run_source(&mut source);
    assert_eq!(r.requests, cfg.requests);
    assert_eq!(source.completed, cfg.requests);
    source.hash.add(r.cycles);
    source.hash.0
}

/// (policy, banks, paced, digest) — 4 clients with 8 outstanding
/// requests each, queues 4 deep, 4,000 requests.
const GRID: [(SchedPolicy, u32, bool, u64); 12] = [
    (SchedPolicy::Fcfs, 1, true, 0xcf2b6923c5918715),
    (SchedPolicy::Fcfs, 1, false, 0xa7ed17a5d63cd9fc),
    (SchedPolicy::Fcfs, 8, true, 0x0e21462d3ce6f77d),
    (SchedPolicy::Fcfs, 8, false, 0x07cb98ba984169d3),
    (SchedPolicy::FrFcfs, 1, true, 0x50a9941e64fcfdf1),
    (SchedPolicy::FrFcfs, 1, false, 0xd893c5a1926143ad),
    (SchedPolicy::FrFcfs, 8, true, 0x11ac37ea327ff9f8),
    (SchedPolicy::FrFcfs, 8, false, 0xcb814e2b1daee94f),
    (SchedPolicy::ShiftAware, 1, true, 0xd5bc3fa1fb5f798f),
    (SchedPolicy::ShiftAware, 1, false, 0x121180920e36f806),
    (SchedPolicy::ShiftAware, 8, true, 0x25e95c221e498cb2),
    (SchedPolicy::ShiftAware, 8, false, 0xe19798ee96fb990f),
];

#[test]
fn clock_aware_source_sees_golden_instants() {
    let mut got = Vec::new();
    for policy in SchedPolicy::ALL {
        for banks in [1, 8] {
            for paced in [true, false] {
                let cfg = ServeConfig::new(policy)
                    .with_requests(4_000)
                    .with_clients(4, 8)
                    .with_banks(banks)
                    .with_queue_depth(4)
                    .with_paced(paced);
                got.push((policy, banks, paced, digest(cfg)));
            }
        }
    }
    assert_eq!(got, GRID, "{got:#x?}");
}
