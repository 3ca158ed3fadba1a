//! The closed-form p-ECC phase match against trial matching.
//!
//! `PeccCode::match_phase` reads the phase off the window's leading run
//! in one pass. The reference below is the trial matcher it replaced:
//! try every phase of the period and compare the window bit by bit.
//! Both must agree on every window over {0, 1, ?} of every strength the
//! paper's stripe geometry accepts, and `decode` must agree with the
//! trial decoder at negative and positive expected indices.

use rtm_pecc::code::{PeccCode, Verdict};
use rtm_pecc::layout::{PeccLayout, ProtectionKind};
use rtm_track::bit::Bit;
use rtm_track::geometry::StripeGeometry;

/// Trial matching: the phase `r ∈ [0, P)` whose window equals
/// `observed`, or `None` when a tap is unknown or no phase matches.
fn trial_match_phase(code: &PeccCode, observed: &[Bit]) -> Option<u32> {
    if observed.iter().any(|b| !b.is_known()) {
        return None;
    }
    let mut found = None;
    for r in 0..code.period() {
        if (r as i64..)
            .zip(observed)
            .all(|(i, &b)| code.bit_at(i) == b)
        {
            assert!(found.is_none(), "window phases must be unique");
            found = Some(r);
        }
    }
    found
}

/// The trial decoder: both phases reduced with `rem_euclid`.
fn trial_decode(code: &PeccCode, expected_index: i64, observed: &[Bit]) -> Verdict {
    let p = code.period() as i64;
    let Some(observed_phase) = trial_match_phase(code, observed) else {
        return Verdict::Uncorrectable;
    };
    let d = (expected_index.rem_euclid(p) - observed_phase as i64).rem_euclid(p);
    code.classify_offset(d as i32)
}

/// Strengths 0 (SED) up to the largest the paper geometry accepts.
fn paper_strengths() -> Vec<u32> {
    let geometry = StripeGeometry::paper_default();
    let mut strengths = vec![0];
    strengths.extend(
        (1..).take_while(|&m| PeccLayout::new(geometry, ProtectionKind::Correcting { m }).is_ok()),
    );
    strengths
}

/// Every window of `width` taps over {0, 1, ?}.
fn all_windows(width: usize) -> impl Iterator<Item = Vec<Bit>> {
    const SYMBOLS: [Bit; 3] = [Bit::Zero, Bit::One, Bit::Unknown];
    (0..3usize.pow(width as u32)).map(move |mut n| {
        (0..width)
            .map(|_| {
                let b = SYMBOLS[n % 3];
                n /= 3;
                b
            })
            .collect()
    })
}

#[test]
fn paper_geometry_accepts_strengths_up_to_six() {
    assert_eq!(paper_strengths(), (0..=6).collect::<Vec<u32>>());
}

#[test]
fn closed_form_match_equals_trial_matching() {
    for m in paper_strengths() {
        let code = PeccCode::new(m);
        let mut matched = 0;
        for window in all_windows(code.window() as usize) {
            let got = code.match_phase(&window);
            assert_eq!(got, trial_match_phase(&code, &window), "m={m} {window:?}");
            matched += usize::from(got.is_some());
        }
        // Each phase of the period names exactly one window.
        assert_eq!(matched, code.period() as usize, "m={m}");
    }
}

#[test]
fn closed_form_decode_equals_trial_decode() {
    for m in paper_strengths() {
        let code = PeccCode::new(m);
        let p = code.period() as i64;
        for window in all_windows(code.window() as usize) {
            for expected in -3 * p..=3 * p {
                assert_eq!(
                    code.decode(expected, &window),
                    trial_decode(&code, expected, &window),
                    "m={m} expected={expected} {window:?}"
                );
            }
        }
    }
}
