//! Group-level protection: a lockstep set of protected stripes holding
//! one cache line (the paper's 512-stripe interleaving), each carrying
//! its own p-ECC taps.
//!
//! A group shift commands every stripe simultaneously; each stripe's
//! walls move under their own physics, so error detection and
//! correction are *per stripe*: after the shared pulse the controller
//! reads every stripe's taps in parallel, and only the slipped stripes
//! receive corrective back-shifts (their neighbours are idle during
//! the repair). The group raises a DUE if any stripe's verdict is
//! uncorrectable after the retry budget.

use crate::code::Verdict;
use crate::layout::{LayoutError, ProtectionKind};
use crate::protected::ProtectedStripe;
use rtm_track::bit::Bit;
use rtm_track::fault::FaultModel;
use rtm_track::geometry::StripeGeometry;
use rtm_track::stripe::StripeError;

/// Statistics of a group's protected operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Group shift transactions issued.
    pub transactions: u64,
    /// Per-stripe corrective shifts issued.
    pub corrections: u64,
    /// Transactions that ended in a DUE.
    pub dues: u64,
}

/// A lockstep group of protected stripes.
///
/// Per-stripe state is materialised lazily: until the group is shifted
/// or written, every member stripe is provably identical to the
/// deterministic fabrication-state prototype (head 0, zeroed data,
/// freshly derived code taps), so only the prototype is stored.
/// Materialisation clones the prototype `count` times — it consumes no
/// randomness, so fault-model sampling streams are unaffected by *when*
/// it happens.
#[derive(Debug, Clone)]
pub struct ProtectedGroup {
    /// The fabrication-state stripe every member equals while pristine.
    prototype: ProtectedStripe,
    /// Materialised per-stripe state; empty while the group is pristine.
    stripes: Vec<ProtectedStripe>,
    count: usize,
    stats: GroupStats,
}

impl ProtectedGroup {
    /// Creates a group of `count` stripes with the given geometry and
    /// protection. Only a single prototype stripe is allocated until the
    /// group is first shifted or written.
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] for invalid combinations.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn new(
        geometry: StripeGeometry,
        kind: ProtectionKind,
        count: usize,
    ) -> Result<Self, LayoutError> {
        assert!(count > 0, "a group needs at least one stripe");
        let prototype = ProtectedStripe::new(geometry, kind)?;
        Ok(Self {
            prototype,
            stripes: Vec::new(),
            count,
            stats: GroupStats::default(),
        })
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the group has zero stripes (never true for a constructed
    /// group, but derived honestly rather than hardcoded).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True while only the prototype stripe is allocated.
    pub fn is_pristine(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Forces per-stripe state into existence (`count` prototype
    /// clones). Draws nothing from any fault model.
    pub fn materialise(&mut self) {
        if self.stripes.is_empty() {
            self.stripes = vec![self.prototype.clone(); self.count];
        }
    }

    /// Approximate heap bytes held by the group's stripe state
    /// (prototype plus materialised stripes; one byte per cell).
    pub fn approx_bytes(&self) -> usize {
        let per =
            std::mem::size_of::<ProtectedStripe>() + self.prototype.layout().geometry.total_len();
        std::mem::size_of::<Self>() + (1 + self.stripes.len()) * per
    }

    /// Group statistics.
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// A member stripe (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stripe(&self, i: usize) -> &ProtectedStripe {
        if self.stripes.is_empty() {
            assert!(i < self.count, "stripe index {i} out of range");
            &self.prototype
        } else {
            &self.stripes[i]
        }
    }

    /// The shared believed head position.
    pub fn believed_head(&self) -> i64 {
        self.stripe(0).believed_head()
    }

    /// True when every stripe is physically synchronised with the
    /// believed head.
    pub fn is_synchronised(&self) -> bool {
        // A pristine group is synchronised by construction.
        self.stripes.iter().all(|s| s.is_synchronised())
    }

    /// Reads data domain `d` of every stripe at the group's head, one
    /// bit per stripe in stripe order. The head is checked and the
    /// domain's port slot found once for the whole line; a pristine
    /// group is read from its prototype.
    ///
    /// # Errors
    ///
    /// Returns [`StripeError::HeadOutOfRange`] when the group's believed
    /// head does not serve `d` (every stripe shares that head).
    pub fn read_domain(&self, d: usize) -> Result<Vec<Bit>, StripeError> {
        let slot = self.stripe(0).domain_slot(d)?;
        if self.stripes.is_empty() {
            return Ok(vec![self.prototype.read_slot(slot)?; self.count]);
        }
        self.stripes.iter().map(|s| s.read_slot(slot)).collect()
    }

    /// Writes `bits[i]` into data domain `d` of stripe `i` at the
    /// group's head, checking the head and finding the port slot once
    /// (materialises the group).
    ///
    /// # Errors
    ///
    /// Like [`ProtectedGroup::read_domain`], plus the first stripe's
    /// [`StripeError::Misaligned`] if any stripe is in a stop-in-middle
    /// state (the stripes before it are written).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the group's stripe count.
    pub fn write_domain(&mut self, d: usize, bits: &[Bit]) -> Result<(), StripeError> {
        assert_eq!(bits.len(), self.count, "one bit per stripe");
        self.materialise();
        let slot = self.stripes[0].domain_slot(d)?;
        for (stripe, &bit) in self.stripes.iter_mut().zip(bits) {
            stripe.write_slot(slot, bit)?;
        }
        Ok(())
    }

    /// One protected group transaction: shift every stripe by `delta`,
    /// check all taps, repair slipped stripes individually (up to
    /// `max_retries` rounds each). Returns the worst per-stripe verdict.
    ///
    /// # Panics
    ///
    /// Panics like [`ProtectedStripe::shift`] on a zero or over-long
    /// delta.
    pub fn shift_checked(
        &mut self,
        delta: i64,
        faults: &mut dyn FaultModel,
        max_retries: u32,
    ) -> Verdict {
        self.materialise();
        self.stats.transactions += 1;
        let mut worst = Verdict::Clean;
        for stripe in &mut self.stripes {
            let before = stripe.corrections();
            // The per-stripe transaction repairs correctable slips
            // internally, so its final verdict is Clean or
            // Uncorrectable.
            let v = stripe.shift_checked(delta, faults, max_retries);
            self.stats.corrections += stripe.corrections() - before;
            if v == Verdict::Uncorrectable {
                worst = Verdict::Uncorrectable;
            }
        }
        if worst == Verdict::Uncorrectable {
            self.stats.dues += 1;
        }
        worst
    }

    /// Seeks the whole group to head position `target` with checked
    /// shifts bounded by the scheme's per-operation limit.
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside the head range.
    pub fn seek_checked(
        &mut self,
        target: usize,
        faults: &mut dyn FaultModel,
        max_retries: u32,
    ) -> Verdict {
        let geometry = self.prototype.layout().geometry;
        assert!(
            target <= geometry.max_shift(),
            "head target {target} out of range"
        );
        let max_step = self.prototype.layout().max_shift_per_op as i64;
        let mut worst = Verdict::Clean;
        while self.believed_head() != target as i64 {
            let delta = (target as i64 - self.believed_head()).clamp(-max_step, max_step);
            let v = self.shift_checked(delta, faults, max_retries);
            if v == Verdict::Uncorrectable {
                return v;
            }
            if worst == Verdict::Clean {
                worst = v;
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_model::shift::ShiftOutcome;
    use rtm_track::fault::{IdealFaultModel, ScriptedFaultModel};

    fn group(count: usize) -> ProtectedGroup {
        ProtectedGroup::new(
            StripeGeometry::paper_default(),
            ProtectionKind::SECDED,
            count,
        )
        .expect("valid layout")
    }

    #[test]
    fn clean_group_transactions() {
        let mut g = group(8);
        let mut ideal = IdealFaultModel;
        for target in [3usize, 7, 0, 5] {
            assert_eq!(g.seek_checked(target, &mut ideal, 3), Verdict::Clean);
            assert!(g.is_synchronised());
        }
        assert_eq!(g.stats().corrections, 0);
        assert_eq!(g.stats().dues, 0);
    }

    #[test]
    fn single_slipped_stripe_is_repaired_alone() {
        let mut g = group(4);
        // The fault model is consumed stripe-by-stripe in order: stripe
        // 1 of 4 slips by +1, the rest are clean; the corrective shift
        // (sampled next) succeeds.
        let mut faults = ScriptedFaultModel::new([
            ShiftOutcome::Pinned { offset: 0 }, // stripe 0 shift
            ShiftOutcome::Pinned { offset: 1 }, // stripe 1 shift (slip!)
            ShiftOutcome::Pinned { offset: 0 }, // stripe 1 correction
            ShiftOutcome::Pinned { offset: 0 }, // stripe 2 shift
            ShiftOutcome::Pinned { offset: 0 }, // stripe 3 shift
        ]);
        let v = g.shift_checked(3, &mut faults, 3);
        assert_eq!(v, Verdict::Clean, "the slip was repaired in-transaction");
        assert!(g.is_synchronised(), "repair must fully resynchronise");
        assert_eq!(g.stats().corrections, 1, "only the slipped stripe moved");
    }

    #[test]
    fn group_due_when_any_stripe_is_uncorrectable() {
        let mut g = group(3);
        let mut faults = ScriptedFaultModel::new([
            ShiftOutcome::Pinned { offset: 0 },
            ShiftOutcome::Pinned { offset: 2 }, // ±2: uncorrectable
            ShiftOutcome::Pinned { offset: 0 },
        ]);
        let v = g.shift_checked(2, &mut faults, 3);
        assert_eq!(v, Verdict::Uncorrectable);
        assert_eq!(g.stats().dues, 1);
        assert!(!g.is_synchronised());
    }

    #[test]
    fn group_size_512_round_trips() {
        // The paper's full line group: everything stays in lockstep
        // across a seek schedule.
        let mut g = group(512);
        let mut ideal = IdealFaultModel;
        for target in [7usize, 2, 6, 0] {
            g.seek_checked(target, &mut ideal, 3);
        }
        assert!(g.is_synchronised());
        assert_eq!(g.len(), 512);
        assert_eq!(g.believed_head(), 0);
    }

    #[test]
    fn calibrated_faults_on_group_scale() {
        // With inflated rates, a 512-stripe group sees frequent
        // per-stripe repairs but stays synchronised (only ±1 injected).
        let mut g = group(64);
        let mut faults = rtm_reliability_stub::InflatedOneStep::new(0.01, 5);
        let mut due = false;
        for target in [3usize, 6, 1, 7, 0, 4] {
            if g.seek_checked(target, &mut faults, 4) == Verdict::Uncorrectable {
                due = true;
                break;
            }
        }
        assert!(!due, "±1 errors must all be repaired");
        assert!(g.is_synchronised());
        assert!(g.stats().corrections > 0, "repairs must have happened");
    }

    /// A minimal ±1-only inflated fault model (avoiding a dev-dependency
    /// cycle on rtm-reliability).
    mod rtm_reliability_stub {
        use rtm_model::shift::ShiftOutcome;
        use rtm_track::fault::FaultModel;
        use rtm_util::rng::SmallRng64;

        pub struct InflatedOneStep {
            p1: f64,
            rng: SmallRng64,
        }

        impl InflatedOneStep {
            pub fn new(p1: f64, seed: u64) -> Self {
                Self {
                    p1,
                    rng: SmallRng64::new(seed),
                }
            }
        }

        impl FaultModel for InflatedOneStep {
            fn sample(&mut self, _d: u32) -> ShiftOutcome {
                if self.rng.chance(self.p1) {
                    let sign = if self.rng.chance(0.9) { 1 } else { -1 };
                    ShiftOutcome::Pinned { offset: sign }
                } else {
                    ShiftOutcome::Pinned { offset: 0 }
                }
            }
        }
    }

    #[test]
    fn pristine_group_defers_stripe_allocation() {
        let mut g = group(512);
        assert!(g.is_pristine());
        assert_eq!(g.len(), 512);
        assert!(!g.is_empty());
        assert_eq!(g.believed_head(), 0);
        assert!(g.is_synchronised());
        let pristine_bytes = g.approx_bytes();
        // Seeking to the position it is already at touches nothing.
        let mut ideal = IdealFaultModel;
        assert_eq!(g.seek_checked(0, &mut ideal, 3), Verdict::Clean);
        assert!(g.is_pristine());
        // A real shift materialises; state matches an eagerly built group.
        g.seek_checked(3, &mut ideal, 3);
        assert!(!g.is_pristine());
        assert!(g.approx_bytes() > 100 * pristine_bytes);
        let mut eager = group(512);
        eager.materialise();
        eager.seek_checked(3, &mut ideal, 3);
        for i in [0usize, 100, 511] {
            assert_eq!(g.stripe(i).believed_head(), eager.stripe(i).believed_head());
            assert_eq!(
                g.stripe(i).is_synchronised(),
                eager.stripe(i).is_synchronised()
            );
        }
    }

    #[test]
    #[should_panic]
    fn empty_group_rejected() {
        let _ = ProtectedGroup::new(StripeGeometry::paper_default(), ProtectionKind::SECDED, 0);
    }
}
