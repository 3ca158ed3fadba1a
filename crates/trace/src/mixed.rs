//! Multi-tenant trace mixing.
//!
//! [`MixedTraceGenerator`] interleaves several per-tenant
//! [`TraceGenerator`](crate::TraceGenerator)-backed
//! [`TenantStream`]s into one access stream with a deterministic
//! weighted round-robin schedule. Each tenant gets its own derived
//! seed and a disjoint 128 MiB address window; windows are set-aligned
//! for the paper's LLC geometry, so tenants contend for the same cache
//! sets (and therefore the same stripe groups) with distinct tags —
//! the contended multi-programmed scenario the serving layer's
//! schedulers are evaluated under.

use crate::generator::MemAccess;
use crate::profile::WorkloadProfile;
use crate::session::TenantStream;

/// Address-space stride between tenants (128 MiB). A multiple of the
/// LLC set span (128 Ki sets × 64 B lines = 8 MiB), so every tenant's
/// address `a` maps to the same set as any other tenant's `a`.
pub const TENANT_STRIDE: u64 = 1 << 27;

/// Interleaves several workload profiles into one multi-tenant stream.
#[derive(Debug, Clone)]
pub struct MixedTraceGenerator {
    tenants: Vec<TenantStream>,
    schedule: Vec<usize>,
    pos: usize,
    generated: u64,
}

impl MixedTraceGenerator {
    /// Mixes `profiles` with equal weights. Tenant `i` draws from
    /// `derive_seed(seed, i)` and issues as core `i` from its own
    /// 128 MiB address window.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or longer than 256 tenants.
    pub fn new(profiles: &[WorkloadProfile], seed: u64) -> Self {
        let weighted: Vec<(WorkloadProfile, u32)> = profiles.iter().map(|&p| (p, 1)).collect();
        Self::with_weights(&weighted, seed)
    }

    /// Mixes profiles with explicit per-tenant weights. The schedule is
    /// a deterministic weighted round-robin: repeated passes pick every
    /// tenant with remaining weight once, until all weights are spent,
    /// then the pattern repeats. Weights `[3, 2, 1]` yield the cycle
    /// `t0 t1 t2 t0 t1 t0`.
    ///
    /// # Panics
    ///
    /// Panics if no tenant has positive weight, there are more than 256
    /// tenants, or a profile fails validation.
    pub fn with_weights(entries: &[(WorkloadProfile, u32)], seed: u64) -> Self {
        assert!(!entries.is_empty(), "at least one tenant");
        assert!(entries.len() <= 256, "core ids are 8-bit");
        assert!(
            entries.iter().any(|(_, w)| *w > 0),
            "at least one positive weight"
        );
        let tenants: Vec<TenantStream> = entries
            .iter()
            .enumerate()
            .map(|(i, (p, _))| TenantStream::new(*p, seed, i as u32))
            .collect();
        let mut remaining: Vec<u32> = entries.iter().map(|(_, w)| *w).collect();
        let mut schedule = Vec::new();
        while remaining.iter().any(|&w| w > 0) {
            for (i, w) in remaining.iter_mut().enumerate() {
                if *w > 0 {
                    *w -= 1;
                    schedule.push(i);
                }
            }
        }
        Self {
            tenants,
            schedule,
            pos: 0,
            generated: 0,
        }
    }

    /// Number of tenants in the mix.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The repeating tenant schedule.
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// Accesses generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Produces the next access: the scheduled tenant's next access,
    /// already relocated into its address window and stamped with the
    /// tenant index as the core by its [`TenantStream`].
    pub fn next_access(&mut self) -> MemAccess {
        let tenant = self.schedule[self.pos];
        // `pos` stays below the schedule length, so wrapping needs no
        // division.
        self.pos += 1;
        if self.pos == self.schedule.len() {
            self.pos = 0;
        }
        self.generated += 1;
        self.tenants[tenant].next_access()
    }

    /// Generates `n` accesses into a vector (convenience for tests).
    pub fn take_vec(&mut self, n: usize) -> Vec<MemAccess> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

impl Iterator for MixedTraceGenerator {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use rtm_util::rng::derive_seed;

    fn profiles(names: &[&str]) -> Vec<WorkloadProfile> {
        names
            .iter()
            .map(|n| WorkloadProfile::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn equal_weights_round_robin() {
        let mut g = MixedTraceGenerator::new(&profiles(&["canneal", "ferret", "vips"]), 1);
        assert_eq!(g.schedule(), &[0, 1, 2]);
        let cores: Vec<u8> = (0..6).map(|_| g.next_access().core).collect();
        assert_eq!(cores, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn weighted_schedule_matches_doc() {
        let p = WorkloadProfile::by_name("canneal").unwrap();
        let g = MixedTraceGenerator::with_weights(&[(p, 3), (p, 2), (p, 1)], 1);
        assert_eq!(g.schedule(), &[0, 1, 2, 0, 1, 0]);
    }

    #[test]
    fn tenants_live_in_disjoint_aligned_windows() {
        let mut g = MixedTraceGenerator::new(&profiles(&["canneal", "canneal"]), 9);
        for _ in 0..2_000 {
            let a = g.next_access();
            let window = a.addr / TENANT_STRIDE;
            assert_eq!(window, a.core as u64, "address stays in tenant window");
        }
        // The stride is set-aligned for the paper LLC (128 Ki sets).
        assert_eq!(TENANT_STRIDE % (131_072 * 64), 0);
    }

    #[test]
    fn mixing_is_deterministic_and_tenant_streams_are_independent() {
        let ps = profiles(&["canneal", "dedup"]);
        let a = MixedTraceGenerator::new(&ps, 5).take_vec(500);
        let b = MixedTraceGenerator::new(&ps, 5).take_vec(500);
        assert_eq!(a, b);
        // A tenant's sub-stream equals a solo generator with the same
        // derived seed (modulo relocation).
        let solo = TraceGenerator::with_cores(ps[1], derive_seed(5, 1), 1).take_vec(250);
        let tenant1: Vec<_> = a.iter().filter(|x| x.core == 1).copied().collect();
        assert_eq!(tenant1.len(), 250);
        for (mixed, alone) in tenant1.iter().zip(&solo) {
            assert_eq!(mixed.addr, alone.addr + TENANT_STRIDE);
            assert_eq!(mixed.is_write, alone.is_write);
            assert_eq!(mixed.gap_instructions, alone.gap_instructions);
        }
    }

    #[test]
    #[should_panic]
    fn zero_weights_rejected() {
        let p = WorkloadProfile::by_name("vips").unwrap();
        let _ = MixedTraceGenerator::with_weights(&[(p, 0)], 1);
    }
}
