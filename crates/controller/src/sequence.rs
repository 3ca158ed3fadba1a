//! Algorithm 1: minimum-latency shift sequences under a risk bound —
//! and the interval-threshold table of Table 3(b).
//!
//! A request for `D` steps can be served by any composition
//! `D = d₁ + d₂ + …` with each part at most the tabulated maximum.
//! Latency and residual risk are both additive over parts, so the
//! planner enumerates the Pareto frontier of (risk, latency) per
//! distance once, and run-time selection is a table lookup:
//!
//! * each candidate sequence has a **minimum interval threshold** —
//!   the inter-shift interval (in cycles) above which its risk fits the
//!   reliability budget (`interval ≥ risk · f_clk · T_target`);
//! * the adapter measures the actual interval and picks the fastest
//!   sequence whose threshold is met, exactly the paper's Table 3(b)
//!   rows for a 7-step request: a single `[7]` needs ≈ 2.4 M idle
//!   cycles, `[4,3]` ≈ 76, `[3,2,2]` ≈ 26, down to `[1×7]` at ≈ 3.

use crate::safety::SafetyBudget;
use rtm_model::sts::StsTiming;
use rtm_util::units::Cycles;

/// Cycles charged for the p-ECC check after each sub-shift (the
/// detection logic runs in well under a cycle — Table 5 lists 0.34 ns —
/// but occupies a pipeline slot).
pub const PECC_CHECK_CYCLES: u64 = 1;

/// One candidate sequence for a given total distance.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceOption {
    /// The sub-shift distances (descending), summing to the request.
    pub sequence: Vec<u32>,
    /// Total latency including per-sub-shift p-ECC checks.
    pub latency: Cycles,
    /// Total residual error probability.
    pub risk: f64,
    /// Minimum inter-shift interval (cycles) at which this sequence
    /// meets the reliability target.
    pub min_interval: u64,
}

/// The per-distance Pareto table the adapter indexes at run time.
#[derive(Debug, Clone)]
pub struct SequenceTable {
    /// `options[d - 1]` = Pareto-optimal sequences for a d-step request,
    /// fastest (highest threshold) first.
    options: Vec<Vec<SequenceOption>>,
    max_part: u32,
}

impl SequenceTable {
    /// Builds the table for requests up to `max_distance` steps, with
    /// individual sub-shifts capped at `max_part`, under `budget` and
    /// `timing`.
    ///
    /// # Panics
    ///
    /// Panics if `max_distance == 0` or `max_part == 0`.
    pub fn build(
        budget: &SafetyBudget,
        timing: &StsTiming,
        max_distance: u32,
        max_part: u32,
    ) -> Self {
        assert!(max_distance > 0, "max_distance must be positive");
        assert!(max_part > 0, "max_part must be positive");
        let clock = timing.clock_hz;
        let target = budget.target().as_secs();
        let latency_of = |d: u32| timing.shift_cycles(d).count() + PECC_CHECK_CYCLES;

        // Pareto DP over total distance: frontier of (latency, risk).
        #[derive(Clone)]
        struct Node {
            latency: u64,
            risk: f64,
            seq: Vec<u32>,
        }
        let mut frontiers: Vec<Vec<Node>> = vec![Vec::new(); max_distance as usize + 1];
        frontiers[0].push(Node {
            latency: 0,
            risk: 0.0,
            seq: Vec::new(),
        });
        for d in 1..=max_distance as usize {
            let mut cands: Vec<Node> = Vec::new();
            for part in 1..=max_part.min(d as u32) {
                let rest = d - part as usize;
                for node in &frontiers[rest] {
                    // Keep parts descending to avoid duplicate
                    // permutations.
                    if node.seq.first().is_some_and(|&f| part > f) {
                        continue;
                    }
                    let mut seq = Vec::with_capacity(node.seq.len() + 1);
                    seq.push(part);
                    seq.extend_from_slice(&node.seq);
                    seq.sort_unstable_by(|a, b| b.cmp(a));
                    cands.push(Node {
                        latency: node.latency + latency_of(part),
                        risk: node.risk + budget.residual_rate(part),
                        seq,
                    });
                }
            }
            // Prune to the Pareto frontier (min latency for any risk).
            cands.sort_by(|a, b| {
                a.latency
                    .cmp(&b.latency)
                    .then(a.risk.partial_cmp(&b.risk).expect("finite risks"))
            });
            let mut frontier: Vec<Node> = Vec::new();
            let mut best_risk = f64::INFINITY;
            for c in cands {
                if c.risk < best_risk {
                    best_risk = c.risk;
                    frontier.push(c);
                }
            }
            frontiers[d] = frontier;
        }

        let options = frontiers
            .into_iter()
            .skip(1)
            .map(|frontier| {
                frontier
                    .into_iter()
                    .map(|n| {
                        let min_interval = (n.risk * clock * target).ceil().max(1.0);
                        let min_interval = if min_interval >= u64::MAX as f64 {
                            u64::MAX
                        } else {
                            min_interval as u64
                        };
                        SequenceOption {
                            sequence: n.seq,
                            latency: Cycles(n.latency),
                            risk: n.risk,
                            min_interval,
                        }
                    })
                    .collect()
            })
            .collect();
        Self { options, max_part }
    }

    /// Largest single sub-shift allowed by the table.
    pub fn max_part(&self) -> u32 {
        self.max_part
    }

    /// Largest request distance covered.
    pub fn max_distance(&self) -> u32 {
        self.options.len() as u32
    }

    /// All Pareto options for a `distance`-step request, fastest first.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero or beyond the table.
    pub fn options(&self, distance: u32) -> &[SequenceOption] {
        assert!(
            distance >= 1 && distance <= self.max_distance(),
            "distance {distance} outside table"
        );
        &self.options[distance as usize - 1]
    }

    /// Picks the fastest sequence whose interval threshold is satisfied
    /// by the observed `interval` (cycles since the previous shift).
    /// Falls back to the safest available sequence when even it misses
    /// the threshold (the request cannot be refused — matching the
    /// paper's conservative degradation to 1-step shifts).
    ///
    /// # Panics
    ///
    /// Panics like [`SequenceTable::options`].
    pub fn select(&self, distance: u32, interval: u64) -> &SequenceOption {
        &self.options(distance)[self.select_index(distance, interval)]
    }

    /// The position in [`SequenceTable::options`] of the option
    /// [`SequenceTable::select`] picks.
    ///
    /// # Panics
    ///
    /// Panics like [`SequenceTable::options`].
    pub(crate) fn select_index(&self, distance: u32, interval: u64) -> usize {
        let opts = self.options(distance);
        opts.iter()
            .position(|o| o.min_interval <= interval)
            .unwrap_or(opts.len() - 1)
    }

    /// The safest (lowest-risk) option for a request — what the
    /// worst-case ("p-ECC-S worst") policy uses when its static safe
    /// distance splits a request.
    ///
    /// # Panics
    ///
    /// Panics like [`SequenceTable::options`].
    pub fn safest(&self, distance: u32) -> &SequenceOption {
        self.options(distance).last().expect("frontier never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::SafetyBudget;

    fn paper_table() -> SequenceTable {
        SequenceTable::build(&SafetyBudget::paper_secded(), &StsTiming::paper(), 7, 7)
    }

    #[test]
    fn table3b_latencies_reproduce() {
        // Paper Table 3(b): sequence → latency for a 7-step request.
        let t = paper_table();
        let opts = t.options(7);
        let find = |seq: &[u32]| {
            opts.iter()
                .find(|o| o.sequence == seq)
                .unwrap_or_else(|| panic!("sequence {seq:?} missing from frontier"))
        };
        assert_eq!(find(&[7]).latency, Cycles(9));
        assert_eq!(find(&[4, 3]).latency, Cycles(13));
        assert_eq!(find(&[3, 2, 2]).latency, Cycles(16));
        assert_eq!(find(&[2, 2, 2, 1]).latency, Cycles(19));
        assert_eq!(find(&[2, 2, 1, 1, 1]).latency, Cycles(22));
        assert_eq!(find(&[2, 1, 1, 1, 1, 1]).latency, Cycles(25));
        assert_eq!(find(&[1, 1, 1, 1, 1, 1, 1]).latency, Cycles(28));
    }

    #[test]
    fn table3b_interval_thresholds_reproduce() {
        // Paper Table 3(b) interval column (cycles): 2445260, 76, 26,
        // 12, 9, 6, 3.
        let t = paper_table();
        let expect: [(&[u32], u64); 7] = [
            (&[7], 2_445_260),
            (&[4, 3], 76),
            (&[3, 2, 2], 26),
            (&[2, 2, 2, 1], 12),
            (&[2, 2, 1, 1, 1], 9),
            (&[2, 1, 1, 1, 1, 1], 6),
            (&[1, 1, 1, 1, 1, 1, 1], 3),
        ];
        for (seq, want) in expect {
            let opt = t
                .options(7)
                .iter()
                .find(|o| o.sequence == seq)
                .unwrap_or_else(|| panic!("sequence {seq:?} missing"));
            let got = opt.min_interval;
            let ratio = got as f64 / want as f64;
            assert!(
                (0.7..1.4).contains(&ratio),
                "seq {seq:?}: interval {got} vs paper {want}"
            );
        }
    }

    #[test]
    fn frontier_is_sorted_and_strictly_improving() {
        let t = paper_table();
        for d in 1..=7 {
            let opts = t.options(d);
            assert!(!opts.is_empty());
            for w in opts.windows(2) {
                assert!(w[0].latency < w[1].latency, "latency must increase");
                assert!(w[0].risk > w[1].risk, "risk must decrease");
            }
            // Every sequence sums to the request.
            for o in opts {
                assert_eq!(o.sequence.iter().sum::<u32>(), d);
            }
        }
    }

    #[test]
    fn select_honours_interval() {
        let t = paper_table();
        // Plenty of idle time: take the single 7-step shift.
        assert_eq!(t.select(7, 3_000_000).sequence, vec![7]);
        // ~100 idle cycles: [4,3] fits, [7] does not.
        assert_eq!(t.select(7, 100).sequence, vec![4, 3]);
        // Back-to-back: fall back to the safest sequence.
        assert_eq!(t.select(7, 1).sequence, vec![1; 7]);
    }

    #[test]
    fn safest_is_all_single_steps() {
        let t = paper_table();
        for d in 1..=7 {
            assert_eq!(t.safest(d).sequence, vec![1; d as usize]);
        }
    }

    #[test]
    fn short_requests_have_trivial_frontier_head() {
        let t = paper_table();
        assert_eq!(t.options(1).len(), 1);
        assert_eq!(t.options(1)[0].sequence, vec![1]);
        assert_eq!(t.options(1)[0].latency, Cycles(4)); // 3 + 1 check
    }

    #[test]
    fn max_part_caps_sub_shifts() {
        let t = SequenceTable::build(&SafetyBudget::paper_secded(), &StsTiming::paper(), 7, 3);
        for o in t.options(7) {
            assert!(o.sequence.iter().all(|&p| p <= 3), "{:?}", o.sequence);
        }
    }

    #[test]
    fn distances_beyond_tabulated_rates_still_work() {
        // A 15-step request (e.g. Lseg = 16 geometries) uses the
        // power-law extrapolation transparently.
        let t = SequenceTable::build(&SafetyBudget::paper_secded(), &StsTiming::paper(), 15, 7);
        let o = t.select(15, 1_000_000_000);
        assert_eq!(o.sequence.iter().sum::<u32>(), 15);
    }

    #[test]
    #[should_panic]
    fn zero_distance_select_panics() {
        let _ = paper_table().select(0, 100);
    }
}
