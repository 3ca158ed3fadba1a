//! Micro-benchmarks of the hot kernels: shift planning, p-ECC
//! decoding, physical stripe and group shifting, the bit-accurate
//! cache's access path, Monte-Carlo sampling and the cache simulator's
//! access path. Uses the in-tree
//! [`rtm_bench::timing`] harness (offline builds cannot pull a
//! benchmarking framework).

use rtm_bench::timing::bench;
use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_mem::cache::AccessKind;
use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
use rtm_mem::physical::PhysicalCache;
use rtm_model::params::DeviceParams;
use rtm_model::shift::ShiftSimulator;
use rtm_pecc::code::PeccCode;
use rtm_pecc::group::ProtectedGroup;
use rtm_pecc::layout::ProtectionKind;
use rtm_pecc::protected::ProtectedStripe;
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::bit::Bit;
use rtm_track::fault::{GaussianFaultModel, IdealFaultModel};
use rtm_track::geometry::StripeGeometry;

fn bench_shift_planning() {
    for (label, policy) in [
        ("adaptive", ShiftPolicy::Adaptive),
        ("step_by_step", ShiftPolicy::StepByStep),
        ("fixed_safe", ShiftPolicy::WORST_CASE),
    ] {
        let kind = if label == "step_by_step" {
            ProtectionKind::SECDED_O
        } else {
            ProtectionKind::SECDED
        };
        let mut ctl = ShiftController::new(kind, policy);
        let mut t = 0u64;
        bench(&format!("controller_plan_shift/{label}"), || {
            t += 37;
            ctl.plan_shift(1 + (t % 7) as u32, t)
        });
    }
}

fn bench_pecc_decode() {
    for m in [1u32, 2, 3] {
        let code = PeccCode::new(m);
        let observed = code.expected_window(5);
        bench(&format!("pecc_decode/window/{m}"), || {
            code.decode(6, &observed)
        });
        bench(&format!("pecc_decode/classify/{m}"), || {
            code.classify_offset(1)
        });
    }
}

fn bench_physical_shift() {
    let mut stripe = ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::SECDED)
        .expect("valid layout");
    let mut ideal = IdealFaultModel;
    let mut dir = 1i64;
    bench("protected_stripe_shift_checked", || {
        // Ping-pong across the head range.
        if stripe.believed_head() >= 7 {
            dir = -1;
        } else if stripe.believed_head() <= 0 {
            dir = 1;
        }
        stripe.shift_checked(dir, &mut ideal, 3)
    });
}

/// A line's group of 8 SECDED stripes seeking under seeded Gaussian
/// faults: 8 fault samples and 8 tap checks per shift, back-shifts on
/// the rare slips.
fn bench_group_seek() {
    let mut group = ProtectedGroup::new(StripeGeometry::paper_default(), ProtectionKind::SECDED, 8)
        .expect("valid layout");
    let mut faults = GaussianFaultModel::new(&DeviceParams::table1(), 2015);
    let mut target = 0usize;
    bench("protected_group_seek_checked", || {
        target = (target + 3) % 8;
        group.seek_checked(target, &mut faults, 3)
    });
}

/// One access of a `physical-rw`-shaped cache (1 MiB direct-mapped, 8
/// SECDED stripes per line, Gaussian faults) on a stride-7 walk over
/// 2048 lines: seek, then sense or program the line's 8 domains.
fn bench_physical_access() {
    let bits: Vec<Bit> = (0..8).map(|b| Bit::from(b % 3 == 0)).collect();
    for (label, kind) in [("read", AccessKind::Read), ("write", AccessKind::Write)] {
        let faults = GaussianFaultModel::new(&DeviceParams::table1(), 2015);
        let mut cache = PhysicalCache::new(1 << 20, 1, ProtectionKind::SECDED, 8, Box::new(faults));
        let data = (kind == AccessKind::Write).then_some(&bits[..]);
        let mut line = 0u64;
        bench(&format!("physical_cache_access/{label}"), || {
            line = (line + 7) % 2048;
            cache.access(line * 64, kind, data)
        });
    }
}

fn bench_monte_carlo() {
    let mut sim = ShiftSimulator::new(DeviceParams::table1(), 9);
    bench("shift_simulator_sts_7step", || sim.shift_with_sts(7));
}

fn bench_hierarchy_access() {
    for (label, choice) in [
        ("sram", LlcChoice::SramBaseline),
        ("rm_adaptive", LlcChoice::RacetrackPeccSAdaptive),
        ("rm_pecc_o", LlcChoice::RacetrackPeccO),
    ] {
        let mut sys = Hierarchy::new(choice);
        let mut gen = TraceGenerator::new(WorkloadProfile::by_name("canneal").unwrap(), 11);
        bench(&format!("hierarchy_access/{label}"), || {
            let a = gen.next_access();
            sys.access(&a)
        });
    }
}

fn main() {
    bench_shift_planning();
    bench_pecc_decode();
    bench_physical_shift();
    bench_group_seek();
    bench_physical_access();
    bench_monte_carlo();
    bench_hierarchy_access();
}
