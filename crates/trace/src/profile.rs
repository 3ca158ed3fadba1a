//! Per-workload synthesis parameters.
//!
//! Each profile is tuned so that the simulated cache hierarchy
//! reproduces the workload's *qualitative* role in the paper's figures:
//! capacity-sensitive programs have working sets between the STT-RAM
//! (32 MB) and racetrack (128 MB) LLC capacities so the bigger LLC
//! visibly pays off; capacity-insensitive ones fit in a few megabytes;
//! streaming programs touch lines sequentially (short shifts), pointer-
//! chasing ones jump randomly (long shifts).

/// Synthesis parameters for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// The PARSEC program this profile impersonates.
    pub name: &'static str,
    /// Total touched memory (bytes).
    pub working_set_bytes: u64,
    /// Size of the hot set (bytes) absorbing most accesses.
    pub hot_set_bytes: u64,
    /// Probability an access targets the hot set.
    pub hot_fraction: f64,
    /// Probability an access continues a sequential stream (the rest
    /// scatter uniformly over the working set).
    pub stream_fraction: f64,
    /// Probability an access is a write.
    pub write_fraction: f64,
    /// Mean non-memory instructions between memory accesses (drives
    /// memory intensity and thus shift intensity).
    pub gap_instructions: f64,
    /// Whether the paper's Fig. 16 groups this workload as capacity
    /// sensitive.
    pub capacity_sensitive: bool,
}

impl WorkloadProfile {
    /// The twelve PARSEC-like profiles, in the paper's display order
    /// (capacity sensitive first).
    pub fn parsec() -> [WorkloadProfile; 12] {
        const MB: u64 = 1 << 20;
        const KB: u64 = 1 << 10;
        [
            // --- capacity sensitive: working sets beyond 32 MB ---
            WorkloadProfile {
                name: "canneal",
                working_set_bytes: 100 * MB,
                hot_set_bytes: 2 * MB,
                hot_fraction: 0.35,
                stream_fraction: 0.05,
                write_fraction: 0.25,
                gap_instructions: 2.5,
                capacity_sensitive: true,
            },
            WorkloadProfile {
                name: "dedup",
                working_set_bytes: 80 * MB,
                hot_set_bytes: 4 * MB,
                hot_fraction: 0.45,
                stream_fraction: 0.35,
                write_fraction: 0.30,
                gap_instructions: 3.0,
                capacity_sensitive: true,
            },
            WorkloadProfile {
                name: "facesim",
                working_set_bytes: 72 * MB,
                hot_set_bytes: 3 * MB,
                hot_fraction: 0.50,
                stream_fraction: 0.25,
                write_fraction: 0.35,
                gap_instructions: 3.5,
                capacity_sensitive: true,
            },
            WorkloadProfile {
                name: "ferret",
                working_set_bytes: 64 * MB,
                hot_set_bytes: 2 * MB,
                hot_fraction: 0.40,
                stream_fraction: 0.15,
                write_fraction: 0.20,
                gap_instructions: 2.8,
                capacity_sensitive: true,
            },
            WorkloadProfile {
                name: "fluidanimate",
                working_set_bytes: 56 * MB,
                hot_set_bytes: 4 * MB,
                hot_fraction: 0.55,
                stream_fraction: 0.20,
                write_fraction: 0.40,
                gap_instructions: 3.2,
                capacity_sensitive: true,
            },
            WorkloadProfile {
                name: "freqmine",
                working_set_bytes: 90 * MB,
                hot_set_bytes: 3 * MB,
                hot_fraction: 0.45,
                stream_fraction: 0.10,
                write_fraction: 0.25,
                gap_instructions: 2.6,
                capacity_sensitive: true,
            },
            // --- capacity insensitive: working sets within a few MB ---
            WorkloadProfile {
                name: "blackscholes",
                working_set_bytes: 2 * MB,
                hot_set_bytes: 256 * KB,
                hot_fraction: 0.80,
                stream_fraction: 0.15,
                write_fraction: 0.20,
                gap_instructions: 6.0,
                capacity_sensitive: false,
            },
            WorkloadProfile {
                name: "bodytrack",
                working_set_bytes: 8 * MB,
                hot_set_bytes: 512 * KB,
                hot_fraction: 0.70,
                stream_fraction: 0.20,
                write_fraction: 0.25,
                gap_instructions: 4.5,
                capacity_sensitive: false,
            },
            WorkloadProfile {
                name: "streamcluster",
                working_set_bytes: 16 * MB,
                hot_set_bytes: 256 * KB,
                hot_fraction: 0.30,
                stream_fraction: 0.60,
                write_fraction: 0.15,
                gap_instructions: 1.8,
                capacity_sensitive: false,
            },
            WorkloadProfile {
                name: "swaptions",
                working_set_bytes: MB,
                hot_set_bytes: 128 * KB,
                hot_fraction: 0.85,
                stream_fraction: 0.10,
                write_fraction: 0.20,
                gap_instructions: 7.0,
                capacity_sensitive: false,
            },
            WorkloadProfile {
                name: "vips",
                working_set_bytes: 12 * MB,
                hot_set_bytes: MB,
                hot_fraction: 0.55,
                stream_fraction: 0.40,
                write_fraction: 0.35,
                gap_instructions: 4.0,
                capacity_sensitive: false,
            },
            WorkloadProfile {
                name: "x264",
                working_set_bytes: 10 * MB,
                hot_set_bytes: MB,
                hot_fraction: 0.60,
                stream_fraction: 0.30,
                write_fraction: 0.30,
                gap_instructions: 4.2,
                capacity_sensitive: false,
            },
        ]
    }

    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<WorkloadProfile> {
        Self::parsec().into_iter().find(|p| p.name == name)
    }

    /// The profiles named in `names`, in that order, skipping unknown
    /// names; all twelve, in display order, for `None`.
    pub fn select(names: Option<&[&str]>) -> Vec<WorkloadProfile> {
        match names {
            None => Self::parsec().to_vec(),
            Some(names) => names.iter().filter_map(|n| Self::by_name(n)).collect(),
        }
    }

    /// Validates internal consistency (fractions in range, hot set
    /// inside working set).
    pub fn validate(&self) -> Result<(), String> {
        let frac = |v: f64, what: &str| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{what} {v} outside [0, 1] for {}", self.name))
            }
        };
        frac(self.hot_fraction, "hot_fraction")?;
        frac(self.stream_fraction, "stream_fraction")?;
        frac(self.write_fraction, "write_fraction")?;
        if self.hot_fraction + self.stream_fraction > 1.0 {
            return Err(format!("hot + stream fractions exceed 1 for {}", self.name));
        }
        if self.hot_set_bytes > self.working_set_bytes {
            return Err(format!("hot set exceeds working set for {}", self.name));
        }
        if self.working_set_bytes == 0 || self.gap_instructions < 0.0 {
            return Err(format!("degenerate sizes for {}", self.name));
        }
        Ok(())
    }
}

/// Folds a workload name into the label its trace seed derives from
/// (`rtm_util::rng::derive_seed(seed, seed_of(name))`), so a workload's
/// trace depends on its name alone, never on its place in a sweep.
pub fn seed_of(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_profiles_all_valid() {
        let all = WorkloadProfile::parsec();
        assert_eq!(all.len(), 12);
        for p in &all {
            p.validate().unwrap();
        }
    }

    #[test]
    fn names_are_unique() {
        let all = WorkloadProfile::parsec();
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i].name, all[j].name);
            }
        }
    }

    #[test]
    fn capacity_split_is_six_six() {
        let all = WorkloadProfile::parsec();
        let sensitive = all.iter().filter(|p| p.capacity_sensitive).count();
        assert_eq!(sensitive, 6);
    }

    #[test]
    fn sensitive_working_sets_straddle_the_llc_gap() {
        // Sensitive workloads exceed the 32 MB STT-RAM LLC but fit the
        // 128 MB racetrack LLC; insensitive ones fit everywhere small.
        for p in WorkloadProfile::parsec() {
            if p.capacity_sensitive {
                assert!(p.working_set_bytes > 32 << 20, "{}", p.name);
                assert!(p.working_set_bytes <= 128 << 20, "{}", p.name);
            } else {
                assert!(p.working_set_bytes <= 16 << 20, "{}", p.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(WorkloadProfile::by_name("canneal").is_some());
        assert!(WorkloadProfile::by_name("doom").is_none());
    }

    #[test]
    fn validate_catches_bad_profiles() {
        let mut p = WorkloadProfile::by_name("vips").unwrap();
        p.hot_fraction = 0.9;
        p.stream_fraction = 0.4;
        assert!(p.validate().is_err());
        let mut p = WorkloadProfile::by_name("vips").unwrap();
        p.hot_set_bytes = p.working_set_bytes + 1;
        assert!(p.validate().is_err());
    }
}
