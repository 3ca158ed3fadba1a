//! Serving an LLC access allocates nothing: the shift controller lends
//! the back end the costed plan it picked instead of a copy, and the
//! per-access metrics live in state built with the run. A counting
//! global allocator watches 10,000 `RacetrackLlc` accesses to lines the
//! LLC has already touched, under every racetrack variant, with and
//! without fault sampling, and with the metrics registry off and on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtm_core::experiments::RtVariant;
use rtm_mem::cache::AccessKind;
use rtm_mem::llc::{LlcModel, RacetrackLlc};
use rtm_model::analytic::Engine;
use rtm_track::fault::FaultModelChoice;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the count is a const-initialised thread-local without a destructor,
// so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes between two ways of one set of the 128 MB, 16-way LLC.
const WAY_STRIDE: u64 = (128 << 20) / 16;

#[test]
fn serving_touched_lines_allocates_nothing() {
    // All 16 ways of sets 0..8 (two stripe groups): every access hits,
    // and consecutive accesses move the heads by 1 to 7 steps.
    let lines: Vec<u64> = (0..16u64)
        .flat_map(|way| (0..8u64).map(move |set| way * WAY_STRIDE + set * 64))
        .collect();
    let registry = rtm_obs::global().registry();
    for registry_on in [false, true] {
        registry.set_enabled(registry_on);
        for variant in RtVariant::ALL {
            for sampled in [false, true] {
                let (kind, policy) = variant.parts();
                let mut llc = RacetrackLlc::new(kind, policy);
                if sampled {
                    llc = llc.with_fault_model(FaultModelChoice::Engine, Engine::Analytic, 5);
                }
                let mut now = 0u64;
                for &addr in &lines {
                    now += 40;
                    llc.access(addr, AccessKind::Read, now);
                }
                let before = allocations();
                for i in 0..10_000usize {
                    let kind = if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    now += 40 + (i as u64 % 5) * 300;
                    llc.access(lines[i * 7 % lines.len()], kind, now);
                }
                let allocated = allocations() - before;
                assert_eq!(
                    allocated,
                    0,
                    "{} (sampled: {sampled}, registry on: {registry_on})",
                    variant.label()
                );
                assert!(llc.stats().shift_steps > 0);
            }
        }
    }
    registry.set_enabled(false);
    registry.reset();
}
