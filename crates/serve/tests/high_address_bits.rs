//! The LLC directory's tags are set-local and 32 bits wide, with a side
//! array for the lines whose tag does not fit, so an address's high
//! bits must never change a schedule. With bit 62 set on every request,
//! each line takes that wide path, and `ServeSim::run` must still
//! return the plain run's `ServeResult` under every policy, at 1 and 8
//! banks, in the paper's 128 MiB LLC and in a 256 KiB one that writes
//! dirty victims back.

use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
use rtm_trace::{MemAccess, MixedTraceGenerator, WorkloadProfile};

const HIGH_BIT: u64 = 1 << 62;

#[test]
fn bit_62_never_changes_a_serving_run() {
    let tenants: Vec<WorkloadProfile> = ["canneal", "dedup", "x264", "swaptions"]
        .iter()
        .map(|name| WorkloadProfile::by_name(name).unwrap())
        .collect();
    let trace = || MixedTraceGenerator::new(&tenants, 2015);
    for policy in [
        SchedPolicy::Fcfs,
        SchedPolicy::FrFcfs,
        SchedPolicy::ShiftAware,
    ] {
        for banks in [1, 8] {
            for capacity in [None, Some(256 << 10)] {
                let mut cfg = ServeConfig::new(policy)
                    .with_banks(banks)
                    .with_paced(false)
                    .with_requests(20_000);
                if let Some(bytes) = capacity {
                    cfg = cfg.with_capacity(bytes);
                }
                let label = format!("{policy:?}, {banks} banks, capacity {capacity:?}");
                let want = ServeSim::new(cfg).run(&mut trace());
                assert_eq!(want.requests, 20_000, "{label}");
                if capacity.is_some() {
                    assert!(want.llc.cache.writebacks > 0, "{label}: no writeback");
                }
                let mut high = trace().map(|a| {
                    assert_eq!(a.addr & HIGH_BIT, 0);
                    MemAccess {
                        addr: a.addr | HIGH_BIT,
                        ..a
                    }
                });
                assert_eq!(ServeSim::new(cfg).run(&mut high), want, "{label}");
            }
        }
    }
}
