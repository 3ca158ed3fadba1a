//! Golden class statistics: an FNV-1a digest of every `FrontResult`
//! field — each `ClassStats` field and the whole `ServeResult` behind
//! the door — for a 500-tenant front door under each policy. Front-door
//! queue delays run far past the serving layer's own latencies, so these
//! runs pin latency summaries of large values as well as small ones.

#[path = "../../serve/tests/digest/mod.rs"]
mod digest;

use digest::{Fnv, FNV_OFFSET};
use rtm_front::{run_front, ClassStats, FrontConfig, FrontResult};
use rtm_serve::SchedPolicy;

fn front_digest(r: &FrontResult) -> u64 {
    let FrontResult {
        tenants,
        classes,
        responses,
        serve,
    } = r;
    assert!(responses.is_none(), "run_front logs no responses");
    let mut h = Fnv(FNV_OFFSET);
    h.add(u64::from(*tenants));
    for ClassStats {
        class,
        tenants,
        admitted,
        shed,
        deferred,
        completed,
        latency,
    } in classes
    {
        h.bytes(class.label().as_bytes());
        for v in [u64::from(*tenants), *admitted, *shed, *deferred, *completed] {
            h.add(v);
        }
        h.summary(latency);
    }
    h.result(serve);
    h.0
}

/// (policy, digest) — `FrontConfig::new(500).with_offered(8_000)`.
const FRONT: [(SchedPolicy, u64); 3] = [
    (SchedPolicy::Fcfs, 0xe279c9d4ab5822bc),
    (SchedPolicy::FrFcfs, 0x4dff855c6c36a223),
    (SchedPolicy::ShiftAware, 0x2cfcbe9ded007c2c),
];

#[test]
fn class_statistics_are_golden() {
    let cfg = FrontConfig::new(500).with_offered(8_000);
    let got: Vec<_> = SchedPolicy::ALL
        .into_iter()
        .map(|policy| {
            let r = run_front(&cfg, policy);
            let longest = r.classes.iter().map(|c| c.latency.max).max();
            assert!(
                longest >= Some(4_096),
                "{policy}: no class latency reaches 4,096 cycles ({longest:?})"
            );
            (policy, front_digest(&r))
        })
        .collect();
    assert_eq!(got, FRONT, "{got:#x?}");
}
