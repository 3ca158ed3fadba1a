//! Bank-occupancy-aware LLC wrapper for hierarchy integration.
//!
//! [`QueuedLlc`] wraps a [`RacetrackLlc`] and charges queueing wait
//! when a request arrives while its bank is still busy with an earlier
//! one. Mounted into a [`Hierarchy`] via [`Hierarchy::with_llc`] this
//! is the *queued-LLC mode*: under the paper's serialised
//! single-request drive the wait is provably zero (each access starts
//! after the previous one finished, which a test pins down), while
//! drives with overlapping timestamps — the [`crate::ServeSim`] event
//! loop, or replay of timestamped traces — observe real bank
//! contention.

use rtm_cost::energy::LlcActivity;
use rtm_cost::technology::LlcDesign;
use rtm_mem::cache::AccessKind;
use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
use rtm_mem::llc::{LlcModel, LlcResponse, LlcStats, RacetrackLlc};
use rtm_util::units::Seconds;

/// A racetrack LLC behind per-bank occupancy accounting.
#[derive(Debug, Clone)]
pub struct QueuedLlc {
    inner: RacetrackLlc,
    busy_until: Vec<u64>,
    wait_cycles: u64,
    waited_accesses: u64,
}

impl QueuedLlc {
    /// Wraps an LLC; one occupancy slot per bank.
    pub fn new(inner: RacetrackLlc) -> Self {
        let banks = inner.banks() as usize;
        Self {
            inner,
            busy_until: vec![0; banks],
            wait_cycles: 0,
            waited_accesses: 0,
        }
    }

    /// The wrapped LLC.
    pub fn inner(&self) -> &RacetrackLlc {
        &self.inner
    }

    /// Total cycles requests spent waiting for a busy bank.
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }

    /// Accesses that found their bank busy.
    pub fn waited_accesses(&self) -> u64 {
        self.waited_accesses
    }
}

impl LlcModel for QueuedLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> LlcResponse {
        let bank = self.inner.group_of(addr) % self.busy_until.len();
        let start = now.max(self.busy_until[bank]);
        let wait = start - now;
        if wait > 0 {
            self.wait_cycles += wait;
            self.waited_accesses += 1;
            rtm_obs::counter_add("serve.llc_wait_cycles", wait);
        }
        let r = self.inner.access(addr, kind, start);
        self.busy_until[bank] = start + r.latency_cycles;
        LlcResponse {
            latency_cycles: wait + r.latency_cycles,
            ..r
        }
    }

    fn stats(&self) -> LlcStats {
        self.inner.stats()
    }

    fn design(&self) -> &LlcDesign {
        self.inner.design()
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        self.inner.activity(duration)
    }
}

/// Builds the paper's platform around a queued racetrack LLC — the
/// hierarchy's queued-LLC mode. `choice` must be a racetrack preset;
/// it selects the protection scheme and shift policy
/// ([`LlcChoice::racetrack_parts`]) and the energy-model label.
///
/// # Panics
///
/// Panics if `choice` is not a racetrack configuration or `banks == 0`.
pub fn queued_hierarchy(choice: LlcChoice, banks: u32) -> Hierarchy {
    let (kind, policy) = choice
        .racetrack_parts()
        .expect("queued mode needs a racetrack LLC");
    let llc = QueuedLlc::new(RacetrackLlc::with_banks(kind, policy, banks));
    Hierarchy::with_llc(Box::new(llc), choice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::{TraceGenerator, WorkloadProfile};

    #[test]
    fn overlapping_requests_wait_for_the_bank() {
        let mut llc = QueuedLlc::new(RacetrackLlc::with_banks(
            rtm_pecc::layout::ProtectionKind::SECDED,
            rtm_controller::controller::ShiftPolicy::Adaptive,
            4,
        ));
        // Two back-to-back requests to the same set at the same
        // instant: the second must absorb the first one's latency.
        let stride = 131_072 * 64; // sets * line bytes
        let r1 = llc.access(0, AccessKind::Read, 0);
        let r2 = llc.access(stride, AccessKind::Read, 0);
        assert_eq!(llc.waited_accesses(), 1);
        assert_eq!(llc.wait_cycles(), r1.latency_cycles);
        assert!(r2.latency_cycles > r1.latency_cycles);
    }

    #[test]
    fn serialised_drive_degenerates_to_the_paper_model() {
        // Under the hierarchy's single-request-at-a-time drive the
        // queued mode must be cycle-identical to the plain model: the
        // clock never reaches a busy bank.
        let p = WorkloadProfile::by_name("canneal").unwrap();
        let mut plain = Hierarchy::new(LlcChoice::RacetrackPeccSAdaptive);
        let mut queued = queued_hierarchy(LlcChoice::RacetrackPeccSAdaptive, 1);
        let a = plain.run(&mut TraceGenerator::new(p, 11), 30_000);
        let b = queued.run(&mut TraceGenerator::new(p, 11), 30_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.llc, b.llc);
    }

    #[test]
    #[should_panic]
    fn non_racetrack_choice_is_rejected() {
        let _ = queued_hierarchy(LlcChoice::SramBaseline, 4);
    }
}
