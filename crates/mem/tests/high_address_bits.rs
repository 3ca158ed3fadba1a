//! A cache tag is set-local and 32 bits wide, with a side array for
//! the lines whose tag does not fit, so an address's high bits must
//! never change a run. Setting bit 62 of every address puts each line
//! of the L1s, the L2 and the LLC on that wide path, and the hierarchy
//! must still report the plain run's `SimResult` field for field,
//! writebacks and DRAM traffic included.

use rtm_controller::controller::ShiftPolicy;
use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
use rtm_mem::llc::RacetrackLlc;
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::{MemAccess, TraceGenerator, WorkloadProfile};

const HIGH_BIT: u64 = 1 << 62;

/// Builds a fresh platform.
type Build = fn() -> Hierarchy;

#[test]
fn bit_62_never_changes_a_hierarchy_run() {
    // The 4 MB SRAM LLC and a 2 MiB racetrack LLC write dirty victims
    // back within the trace; the 128 MB one does not fill.
    let builds: [(&str, Build, bool); 3] = [
        ("SRAM", || Hierarchy::new(LlcChoice::SramBaseline), true),
        (
            "RM p-ECC-S adaptive",
            || Hierarchy::new(LlcChoice::RacetrackPeccSAdaptive),
            false,
        ),
        (
            "2 MiB RM SECDED",
            || {
                let llc = RacetrackLlc::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
                    .with_capacity(2 << 20);
                Hierarchy::with_llc(Box::new(llc), LlcChoice::RacetrackUnprotected)
            },
            true,
        ),
    ];
    for workload in ["canneal", "dedup"] {
        let p = WorkloadProfile::by_name(workload).unwrap();
        let plain: Vec<MemAccess> = TraceGenerator::new(p, 2015).take(100_000).collect();
        assert!(plain.iter().all(|a| a.addr & HIGH_BIT == 0));
        let high: Vec<MemAccess> = plain
            .iter()
            .map(|a| MemAccess {
                addr: a.addr | HIGH_BIT,
                ..*a
            })
            .collect();
        for (label, build, writes_back) in builds {
            let want = build().run_trace(&plain);
            assert!(want.llc.cache.hits > 0, "{workload}/{label}: no LLC hit");
            if writes_back {
                assert!(
                    want.llc.cache.writebacks > 0,
                    "{workload}/{label}: no LLC writeback"
                );
            }
            assert_eq!(build().run_trace(&high), want, "{workload}/{label}");
        }
    }
}
