//! Monte-Carlo fault injection against the bit-accurate protected
//! stripe.
//!
//! The analytic accounting in [`crate::accounting`] classifies error
//! magnitudes through the code's phase arithmetic. This module
//! validates that classification physically: it drives a
//! [`rtm_pecc::ProtectedStripe`] with a fault model whose error rates
//! are inflated to observable levels, lets the controller transaction
//! (shift → check → correct → re-check) run, and *observes* what
//! actually happened to the stripe — including whether the data is
//! silently desynchronised.

use rtm_model::alias::AliasTable;
use rtm_model::shift::ShiftOutcome;
use rtm_pecc::code::Verdict;
use rtm_pecc::layout::ProtectionKind;
use rtm_pecc::protected::ProtectedStripe;
use rtm_track::fault::FaultModel;
use rtm_track::geometry::StripeGeometry;
use rtm_util::rng::SmallRng64;

/// The five inflated outcome classes, in alias-table slot order.
const INFLATED_OFFSETS: [i32; 5] = [0, 1, -1, 2, -2];

/// A fault model with uniformly inflated ±k rates, for making rare
/// events observable in bounded test time.
///
/// Outcomes are drawn from a precomputed five-class Walker alias table
/// (`{clean, +1, −1, +2, −2}`) — one RNG draw per sample instead of
/// the old ladder walk plus a second sign draw.
#[derive(Debug, Clone)]
pub struct InflatedFaultModel {
    /// Probability of a ±1 error per shift operation.
    pub p1: f64,
    /// Probability of a ±2 error per shift operation.
    pub p2: f64,
    /// Fraction of errors that over-shift.
    pub plus_fraction: f64,
    table: AliasTable,
    rng: SmallRng64,
}

impl InflatedFaultModel {
    /// Creates a model with the given inflated rates.
    ///
    /// # Panics
    ///
    /// Panics if `p1 + p2 > 1` or any probability is out of range.
    pub fn new(p1: f64, p2: f64, plus_fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p1) && (0.0..=1.0).contains(&p2));
        assert!(p1 + p2 <= 1.0, "probabilities must not exceed 1");
        assert!((0.0..=1.0).contains(&plus_fraction));
        let weights = [
            (1.0 - p1 - p2).max(0.0),
            p1 * plus_fraction,
            p1 * (1.0 - plus_fraction),
            p2 * plus_fraction,
            p2 * (1.0 - plus_fraction),
        ];
        Self {
            p1,
            p2,
            plus_fraction,
            table: AliasTable::new(&weights),
            rng: SmallRng64::new(seed),
        }
    }
}

impl FaultModel for InflatedFaultModel {
    fn sample(&mut self, _distance: u32) -> ShiftOutcome {
        let offset = INFLATED_OFFSETS[self.table.sample(&mut self.rng)];
        ShiftOutcome::Pinned { offset }
    }
}

/// Tallies from an injection campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionTally {
    /// Shift transactions driven.
    pub transactions: u64,
    /// Transactions that ended clean and physically synchronised.
    pub clean: u64,
    /// Transactions where the stripe ended desynchronised but the code
    /// reported clean — silent data corruption.
    pub silent_corruptions: u64,
    /// Transactions that surfaced an uncorrectable verdict (DUE).
    pub detected_uncorrectable: u64,
    /// Corrective back-shifts issued across the campaign.
    pub corrections: u64,
}

impl InjectionTally {
    /// Observed DUE probability per transaction.
    pub fn due_rate(&self) -> f64 {
        self.detected_uncorrectable as f64 / self.transactions.max(1) as f64
    }
}

/// Runs an injection campaign: `transactions` protected shift
/// transactions of random legal distances on a fresh stripe, with
/// faults drawn from `faults`. After any uncorrectable verdict the
/// stripe is rebuilt (modelling the refill-from-upper-level recovery).
///
/// # Panics
///
/// Panics if the layout is invalid for the geometry.
pub fn run_injection(
    geometry: StripeGeometry,
    kind: ProtectionKind,
    faults: &mut dyn FaultModel,
    transactions: u64,
    seed: u64,
) -> InjectionTally {
    let mut stripe = ProtectedStripe::new(geometry, kind).expect("valid layout");
    let mut rng = SmallRng64::new(seed);
    let mut tally = InjectionTally::default();
    let max_step = stripe.layout().max_shift_per_op as i64;
    for _ in 0..transactions {
        tally.transactions += 1;
        // Pick a random legal target different from the current head.
        let target = loop {
            let t = rng.next_below(geometry.max_shift() as u64 + 1) as i64;
            if t != stripe.believed_head() {
                break t;
            }
        };
        let corrections_before = stripe.corrections();
        let mut verdict = Verdict::Clean;
        while stripe.believed_head() != target {
            let delta = (target - stripe.believed_head()).clamp(-max_step, max_step);
            verdict = stripe.shift_checked(delta, faults, 3);
            if verdict == Verdict::Uncorrectable {
                break;
            }
        }
        tally.corrections += stripe.corrections() - corrections_before;
        match verdict {
            Verdict::Uncorrectable => {
                tally.detected_uncorrectable += 1;
                // Recovery: refill the stripe from clean state.
                stripe = ProtectedStripe::new(geometry, kind).expect("valid layout");
            }
            _ => {
                if stripe.is_synchronised() {
                    tally.clean += 1;
                } else {
                    tally.silent_corruptions += 1;
                    // The corruption is latent; reset so later
                    // transactions are independently classified.
                    stripe = ProtectedStripe::new(geometry, kind).expect("valid layout");
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> StripeGeometry {
        StripeGeometry::paper_default()
    }

    #[test]
    fn secded_corrects_all_one_step_injections() {
        // Only ±1 errors injected: SECDED must repair every one.
        let mut faults = InflatedFaultModel::new(0.05, 0.0, 0.8, 1);
        let tally = run_injection(geometry(), ProtectionKind::SECDED, &mut faults, 3000, 2);
        assert_eq!(tally.silent_corruptions, 0, "{tally:?}");
        assert_eq!(tally.detected_uncorrectable, 0, "{tally:?}");
        assert!(tally.corrections > 50, "{tally:?}");
        assert_eq!(tally.clean, tally.transactions);
    }

    #[test]
    fn secded_flags_two_step_injections_as_due() {
        let mut faults = InflatedFaultModel::new(0.0, 0.02, 0.8, 3);
        let tally = run_injection(geometry(), ProtectionKind::SECDED, &mut faults, 3000, 4);
        assert!(tally.detected_uncorrectable > 10, "{tally:?}");
        assert_eq!(tally.silent_corruptions, 0, "±2 is always detected");
    }

    #[test]
    fn unprotected_stripe_corrupts_silently() {
        let mut faults = InflatedFaultModel::new(0.02, 0.0, 0.8, 5);
        let tally = run_injection(geometry(), ProtectionKind::None, &mut faults, 3000, 6);
        assert!(tally.silent_corruptions > 10, "{tally:?}");
        assert_eq!(tally.detected_uncorrectable, 0);
    }

    #[test]
    fn sed_detects_one_step_but_cannot_fix() {
        let mut faults = InflatedFaultModel::new(0.02, 0.0, 0.8, 7);
        let tally = run_injection(geometry(), ProtectionKind::Sed, &mut faults, 3000, 8);
        assert!(tally.detected_uncorrectable > 10, "{tally:?}");
        assert_eq!(tally.corrections, 0, "SED never corrects");
    }

    #[test]
    fn stronger_code_turns_dues_into_corrections() {
        let mut faults = InflatedFaultModel::new(0.0, 0.02, 0.8, 9);
        let tally = run_injection(
            geometry(),
            ProtectionKind::Correcting { m: 2 },
            &mut faults,
            3000,
            10,
        );
        assert_eq!(tally.detected_uncorrectable, 0, "{tally:?}");
        assert_eq!(tally.silent_corruptions, 0, "{tally:?}");
        assert!(tally.corrections > 10);
    }

    #[test]
    fn observed_rates_match_injected_rates() {
        let p2 = 0.01;
        let mut faults = InflatedFaultModel::new(0.0, p2, 0.8, 11);
        let n = 20_000;
        let tally = run_injection(geometry(), ProtectionKind::SECDED, &mut faults, n, 12);
        // Each transaction runs ~avg 2+ shift ops (mean distance over
        // random seeks with corrections); the DUE rate per transaction
        // should be within a factor ~4 of p2 × ops-per-transaction ≈ p2.
        let due = tally.due_rate();
        assert!(
            (p2 * 0.5..p2 * 8.0).contains(&due),
            "observed DUE rate {due:.4} vs injected {p2}"
        );
    }

    #[test]
    fn fault_free_campaign_is_all_clean() {
        let mut faults = InflatedFaultModel::new(0.0, 0.0, 0.8, 13);
        let tally = run_injection(geometry(), ProtectionKind::SECDED, &mut faults, 500, 14);
        assert_eq!(tally.clean, 500);
        assert_eq!(tally.corrections, 0);
    }

    #[test]
    #[should_panic]
    fn overfull_probabilities_rejected() {
        let _ = InflatedFaultModel::new(0.7, 0.6, 0.5, 1);
    }
}
