//! `ProtectedGroup::{read_domain, write_domain}` against the per-stripe
//! loop they replaced: one head check per line must sense the same bits,
//! leave the same stripes and refuse with the same error as reading or
//! writing each stripe on its own, on pristine and on materialised
//! groups of every protection kind.

use rtm_model::shift::ShiftOutcome;
use rtm_pecc::code::Verdict;
use rtm_pecc::group::ProtectedGroup;
use rtm_pecc::layout::ProtectionKind;
use rtm_pecc::protected::ProtectedStripe;
use rtm_track::bit::Bit;
use rtm_track::fault::FaultModel;
use rtm_track::geometry::StripeGeometry;
use rtm_track::stripe::StripeError;
use rtm_util::rng::SmallRng64;

const KINDS: [ProtectionKind; 6] = [
    ProtectionKind::None,
    ProtectionKind::Sed,
    ProtectionKind::SECDED,
    ProtectionKind::SECDED_O,
    ProtectionKind::CHEE_KIAH,
    ProtectionKind::VAHID_2DI,
];

const STRIPES: usize = 8;

/// Frequent slips of one and two steps and stop-in-middle outcomes, so
/// the walk corrects, raises DUEs (leaving the head short of its
/// target) and leaves unprotected stripes misaligned.
struct Rough(SmallRng64);

impl FaultModel for Rough {
    fn sample(&mut self, _distance: u32) -> ShiftOutcome {
        match self.0.next_below(100) {
            0..=3 => ShiftOutcome::Pinned { offset: 1 },
            4..=6 => ShiftOutcome::Pinned { offset: -1 },
            7 => ShiftOutcome::Pinned { offset: 2 },
            8 => ShiftOutcome::StopInMiddle {
                lower: 0,
                frac: 0.5,
            },
            _ => ShiftOutcome::Pinned { offset: 0 },
        }
    }
}

fn group(kind: ProtectionKind) -> ProtectedGroup {
    ProtectedGroup::new(StripeGeometry::paper_default(), kind, STRIPES).expect("valid layout")
}

/// The per-stripe read loop: every stripe's own head check.
fn per_stripe_read(g: &ProtectedGroup, d: usize) -> Result<Vec<Bit>, StripeError> {
    (0..g.len()).map(|i| g.stripe(i).read_domain(d)).collect()
}

/// Every domain of the line: the ones the head serves read the same
/// bits, every other one the same `HeadOutOfRange`.
fn assert_reads_match(g: &ProtectedGroup, at: &str) {
    for d in 0..StripeGeometry::paper_default().data_len() {
        assert_eq!(g.read_domain(d), per_stripe_read(g, d), "{at} domain {d}");
    }
}

/// Writes `bits` to domain `d` through the group and, stripe by stripe,
/// into copies of its stripes; both must return the same result and
/// leave the same stripes. Returns that result.
fn assert_write_matches(
    g: &mut ProtectedGroup,
    d: usize,
    bits: &[Bit],
    at: &str,
) -> Result<(), StripeError> {
    let mut copies: Vec<ProtectedStripe> = (0..g.len()).map(|i| g.stripe(i).clone()).collect();
    let per_stripe = copies
        .iter_mut()
        .zip(bits)
        .try_for_each(|(s, &b)| s.write_domain(d, b));
    assert_eq!(g.write_domain(d, bits), per_stripe, "{at} domain {d}");
    assert!(!g.is_pristine(), "{at}: a write materialises the group");
    for (i, copy) in copies.iter().enumerate() {
        assert_eq!(g.stripe(i), copy, "{at} domain {d} stripe {i}");
    }
    per_stripe
}

#[test]
fn pristine_line_access_equals_the_per_stripe_loop() {
    for kind in KINDS {
        let mut g = group(kind);
        assert!(g.is_pristine());
        assert_reads_match(&g, &format!("{kind} pristine"));
        assert!(g.is_pristine(), "reads do not materialise");
        // Domain 7 is served at head 0, domain 0 is not.
        let bits: Vec<Bit> = (0..STRIPES).map(|i| Bit::from(i % 3 == 0)).collect();
        let at = format!("{kind} pristine");
        assert_eq!(assert_write_matches(&mut g, 7, &bits, &at), Ok(()));
        let mut g = group(kind);
        assert!(assert_write_matches(&mut g, 0, &bits, &at).is_err());
    }
}

#[test]
fn mispositioned_head_gives_the_same_error() {
    // Domain 0 is served at head 7; a fresh group's head is at 0.
    let wrong_head = StripeError::HeadOutOfRange { head: 0, max: 7 };
    let mut g = group(ProtectionKind::SECDED);
    assert_eq!(g.stripe(3).read_domain(0), Err(wrong_head));
    assert_eq!(g.read_domain(0), Err(wrong_head));
    assert_eq!(g.write_domain(0, &[Bit::One; STRIPES]), Err(wrong_head));
}

#[test]
fn materialised_line_access_equals_the_per_stripe_loop() {
    for (k, kind) in KINDS.into_iter().enumerate() {
        let mut g = group(kind);
        let mut faults = Rough(SmallRng64::new(0x11FE + k as u64));
        let mut rng = SmallRng64::new(0xD0 + k as u64);
        let (mut dues, mut written, mut wrong_head, mut misaligned) = (0, 0, 0, 0);
        for step in 0..400 {
            let target = rng.next_below(8) as usize;
            if g.seek_checked(target, &mut faults, 3) == Verdict::Uncorrectable {
                dues += 1;
            }
            let at = format!("{kind} step {step}");
            assert_reads_match(&g, &at);
            // Mostly a domain the believed head serves, sometimes any.
            let d = if rng.next_below(4) == 0 {
                rng.next_below(64) as usize
            } else {
                8 * rng.next_below(8) as usize + 7 - g.believed_head() as usize
            };
            let bits: Vec<Bit> = (0..STRIPES)
                .map(|_| Bit::from(rng.next_below(2) == 1))
                .collect();
            match assert_write_matches(&mut g, d, &bits, &at) {
                Ok(()) => written += 1,
                Err(StripeError::HeadOutOfRange { .. }) => wrong_head += 1,
                Err(StripeError::Misaligned) => misaligned += 1,
                Err(e) => panic!("{at}: unexpected {e}"),
            }
            assert_reads_match(&g, &at);
        }
        assert!(
            written > 0 && wrong_head > 0,
            "{kind}: {written} / {wrong_head}"
        );
        if kind == ProtectionKind::None {
            assert!(misaligned > 0, "{kind}: no stripe was left misaligned");
        } else {
            assert!(dues > 0, "{kind}: the walk raised no DUE");
        }
    }
}
