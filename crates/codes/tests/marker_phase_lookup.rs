//! `MarkerCode::match_phase` looks the phase of an observed window up in
//! a table memoised per strength. This checks it against the scan it
//! replaced — compare the window with the pattern at each of the 64
//! phases in turn — at every strength, on every window the decoder can
//! be shown: the 64 exact windows, every one-bit corruption of each,
//! and each window with one tap unknown.

use rtm_codes::MarkerCode;
use rtm_track::bit::Bit;

/// The reference: the first phase whose expected window equals
/// `observed` (an unknown tap equals no pattern bit).
fn scan(code: &MarkerCode, observed: &[Bit]) -> Option<u32> {
    (0..code.period()).find(|&r| code.expected_window(i64::from(r)) == observed)
}

fn flip(b: Bit) -> Bit {
    match b {
        Bit::Zero => Bit::One,
        Bit::One => Bit::Zero,
        Bit::Unknown => Bit::Unknown,
    }
}

#[test]
fn lookup_matches_the_scan_on_every_window() {
    for strength in 0..=7 {
        let code = MarkerCode::new(strength);
        for phase in 0..code.period() {
            let window = code.expected_window(i64::from(phase));
            assert_eq!(code.match_phase(&window), Some(phase), "s={strength}");
            assert_eq!(scan(&code, &window), Some(phase), "s={strength}");
            for k in 0..window.len() {
                let mut bent = window.clone();
                bent[k] = flip(bent[k]);
                assert_eq!(
                    code.match_phase(&bent),
                    scan(&code, &bent),
                    "s={strength} phase={phase} flip={k}"
                );
                bent[k] = Bit::Unknown;
                assert_eq!(code.match_phase(&bent), None, "s={strength} unknown={k}");
                assert_eq!(scan(&code, &bent), None);
            }
        }
    }
}

#[test]
fn lookup_matches_the_scan_on_arbitrary_words() {
    // Every 9-bit word at strength 0 (all 512 of them), and a stride
    // through the 2^13 words of strength 2.
    for (strength, step) in [(0u32, 1usize), (2, 7)] {
        let code = MarkerCode::new(strength);
        let width = code.window() as usize;
        for word in (0..1usize << width).step_by(step) {
            let observed: Vec<Bit> = (0..width).map(|k| Bit::from(word >> k & 1 == 1)).collect();
            assert_eq!(
                code.match_phase(&observed),
                scan(&code, &observed),
                "s={strength} word={word:#x}"
            );
        }
    }
}
