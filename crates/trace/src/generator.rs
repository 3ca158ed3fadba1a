//! The deterministic access-stream generator.

use crate::profile::WorkloadProfile;
use rtm_util::rng::SmallRng64;

/// One memory access at the CPU/L1 boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address within the workload's address space.
    pub addr: u64,
    /// Write (store) versus read (load).
    pub is_write: bool,
    /// Issuing core (round-robins over the configured core count).
    pub core: u8,
    /// Non-memory instructions retired since the previous access (for
    /// execution-time accounting).
    pub gap_instructions: u32,
}

/// Deterministic synthetic trace generator for one workload.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: SmallRng64,
    stream_pos: u64,
    cores: u8,
    next_core: u8,
    generated: u64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded by `seed`, with the
    /// paper's 4-core system.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        Self::with_cores(profile, seed, 4)
    }

    /// Creates a generator with an explicit core count.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid or `cores == 0`.
    pub fn with_cores(profile: WorkloadProfile, seed: u64, cores: u8) -> Self {
        profile.validate().expect("profile must be valid");
        assert!(cores > 0, "at least one core");
        Self {
            profile,
            rng: SmallRng64::new(seed ^ 0xACCE_55ED),
            stream_pos: 0,
            cores,
            next_core: 0,
            generated: 0,
        }
    }

    /// The profile being synthesised.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of accesses generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Produces the next access.
    pub fn next_access(&mut self) -> MemAccess {
        let p = &self.profile;
        let u = self.rng.next_f64();
        let addr = if u < p.hot_fraction {
            // Hot set at the bottom of the address space, with strongly
            // skewed temporal locality (real hot sets are not uniform:
            // the power-law bias keeps most hot traffic within an
            // L1-sized core of the hot region).
            let frac = self.rng.next_f64().powi(10);
            (frac * p.hot_set_bytes.max(64) as f64) as u64
        } else if u < p.hot_fraction + p.stream_fraction {
            // Sequential streaming through the working set, one word at
            // a time, wrapping around. The position is already below
            // the working-set size, so only a step that reaches it needs
            // the division.
            self.stream_pos += 8;
            if self.stream_pos >= p.working_set_bytes {
                self.stream_pos %= p.working_set_bytes;
            }
            self.stream_pos
        } else {
            // Scattered access over the whole working set.
            self.rng.next_below(p.working_set_bytes)
        };
        // Word-align like a real load/store stream.
        let addr = addr & !0x7;
        let is_write = self.rng.chance(p.write_fraction);
        // Geometric-ish gap around the profile mean.
        let gap = (p.gap_instructions * (0.5 + self.rng.next_f64())).round() as u32;
        let core = self.next_core;
        self.next_core += 1;
        if self.next_core == self.cores {
            self.next_core = 0;
        }
        self.generated += 1;
        MemAccess {
            addr,
            is_write,
            core,
            gap_instructions: gap,
        }
    }

    /// Generates `n` accesses into a vector (convenience for tests).
    pub fn take_vec(&mut self, n: usize) -> Vec<MemAccess> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

impl Iterator for TraceGenerator {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen(name: &str, seed: u64) -> TraceGenerator {
        TraceGenerator::new(WorkloadProfile::by_name(name).unwrap(), seed)
    }

    #[test]
    fn deterministic_across_runs() {
        let a = gen("canneal", 7).take_vec(1000);
        let b = gen("canneal", 7).take_vec(1000);
        assert_eq!(a, b);
        let c = gen("canneal", 8).take_vec(1000);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = WorkloadProfile::by_name("ferret").unwrap();
        let mut g = TraceGenerator::new(p, 3);
        for _ in 0..50_000 {
            let a = g.next_access();
            assert!(a.addr < p.working_set_bytes);
            assert_eq!(a.addr % 8, 0, "word aligned");
        }
    }

    #[test]
    fn write_fraction_tracks_profile() {
        let p = WorkloadProfile::by_name("fluidanimate").unwrap();
        let mut g = TraceGenerator::new(p, 11);
        let n = 100_000;
        let writes = (0..n).filter(|_| g.next_access().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - p.write_fraction).abs() < 0.01, "write frac {frac}");
    }

    #[test]
    fn hot_set_absorbs_expected_share() {
        let p = WorkloadProfile::by_name("swaptions").unwrap();
        let mut g = TraceGenerator::new(p, 5);
        let n = 100_000;
        let hot = (0..n)
            .filter(|_| g.next_access().addr < p.hot_set_bytes)
            .count();
        let frac = hot as f64 / n as f64;
        // Hot fraction plus incidental stream/scatter hits below the
        // hot boundary.
        assert!(frac > p.hot_fraction, "hot share {frac}");
    }

    #[test]
    fn streaming_workload_touches_more_unique_lines() {
        let lines = |name: &str| {
            let mut g = gen(name, 9);
            let set: HashSet<u64> = (0..50_000).map(|_| g.next_access().addr >> 6).collect();
            set.len()
        };
        // streamcluster streams 60 % of its accesses; swaptions sits in
        // a 128 KB hot set.
        assert!(lines("streamcluster") > 2 * lines("swaptions"));
    }

    #[test]
    fn cores_round_robin() {
        let mut g = gen("vips", 1);
        let cores: Vec<u8> = (0..8).map(|_| g.next_access().core).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn gaps_center_on_profile_mean() {
        let p = WorkloadProfile::by_name("blackscholes").unwrap();
        let mut g = TraceGenerator::new(p, 2);
        let n = 100_000;
        let total: u64 = (0..n)
            .map(|_| g.next_access().gap_instructions as u64)
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - p.gap_instructions).abs() < 0.5, "gap mean {mean}");
    }

    #[test]
    fn iterator_interface_works() {
        let g = gen("x264", 4);
        let v: Vec<MemAccess> = g.take(10).collect();
        assert_eq!(v.len(), 10);
    }
}
