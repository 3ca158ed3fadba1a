//! An aperiodic marker pattern with shift-unique windows: the
//! stripe-level companion to the stream codecs.
//!
//! The cyclic p-ECC reads a window of a *periodic* square wave, so its
//! phase decoder aliases at the code period (a ±P slip reads clean).
//! The stream codecs remove that floor at the word level; this marker
//! removes it at the *stripe* level. The pattern has period `L = 64`
//! but every one of the `L` windows of width `2s + 9` is distinct, so
//! an observed window identifies the absolute tap phase within the
//! period — a slip of up to ±(L/2 − 1) steps is recovered exactly, and
//! only a full ±64-domain excursion (physically a destroyed track)
//! could alias. `rtm-pecc` uses this as the check path for the
//! deletion/insertion schemes: correct up to the scheme strength `s`,
//! report everything else — including what the cyclic code would
//! silently miss — as [`Verdict::Uncorrectable`].
//!
//! The pattern itself comes from a deterministic search: candidate
//! patterns are drawn from [`rtm_util::rng::SmallRng64`] at seeds
//! `0, 1, 2, …` and the first with all-distinct windows wins. The
//! search is re-run on construction (and memoised per strength), so
//! the pattern is a pure function of the strength — no stored tables,
//! no ambient randomness. Beside the pattern, each strength memoises its
//! 64 windows sorted with their phases, so decoding a window costs a
//! binary search (six compares), not a scan of the rotations.

use crate::verdict::Verdict;
use rtm_track::bit::Bit;
use rtm_util::rng::SmallRng64;
use std::sync::OnceLock;

/// Pattern period in domains.
const PERIOD: usize = 64;

/// Highest strength the memoised search supports.
const MAX_STRENGTH: usize = 7;

/// What a strength determines: its pattern, and the phase of each of
/// the pattern's `PERIOD` windows as `(packed window, phase)` pairs
/// sorted by window (bit `k` of a packed window is tap `k`).
struct Memo {
    pattern: u64,
    phases: [(u32, u32); PERIOD],
}

/// The memoised pattern and phase lookup of `strength`.
fn memo(strength: u32) -> &'static Memo {
    static CACHE: [OnceLock<Memo>; MAX_STRENGTH + 1] =
        [const { OnceLock::new() }; MAX_STRENGTH + 1];
    CACHE[strength as usize].get_or_init(|| {
        let pattern = search(strength);
        let mask = (1u64 << (2 * strength + 9)) - 1;
        let mut phases = [(0, 0); PERIOD];
        for (phase, entry) in (0..).zip(phases.iter_mut()) {
            *entry = ((pattern.rotate_right(phase) & mask) as u32, phase);
        }
        phases.sort_unstable();
        Memo { pattern, phases }
    })
}

/// A marker code of a given correction strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarkerCode {
    strength: u32,
    /// The period-`PERIOD` pattern, bit `i` in bit `i` of the word.
    pattern: u64,
}

impl MarkerCode {
    /// Creates a marker code correcting up to `strength` steps.
    pub fn new(strength: u32) -> Self {
        assert!(
            (strength as usize) <= MAX_STRENGTH,
            "marker search memoised up to strength {MAX_STRENGTH}"
        );
        let pattern = memo(strength).pattern;
        Self { strength, pattern }
    }

    /// Correction strength `s`.
    pub fn strength(&self) -> u32 {
        self.strength
    }

    /// Pattern period in domains.
    pub fn period(&self) -> u32 {
        PERIOD as u32
    }

    /// Window width (= number of marker read taps) `2s + 9`.
    pub fn window(&self) -> u32 {
        2 * self.strength + 9
    }

    /// The marker bit at (possibly negative) index `i`.
    pub fn bit_at(&self, i: i64) -> Bit {
        let phase = i.rem_euclid(PERIOD as i64) as u32;
        Bit::from(self.pattern >> phase & 1 == 1)
    }

    /// Generates `len` marker bits starting at index `start`.
    pub fn pattern(&self, start: i64, len: usize) -> Vec<Bit> {
        (0..len as i64).map(|k| self.bit_at(start + k)).collect()
    }

    /// The window of `2s + 9` bits expected when the leading tap sits
    /// at marker index `i`.
    pub fn expected_window(&self, i: i64) -> Vec<Bit> {
        self.pattern(i, self.window() as usize)
    }

    /// Finds the unique phase `r ∈ [0, 64)` whose window matches
    /// `observed`, or `None` if no phase matches (garbled bits).
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != self.window()`.
    pub fn match_phase(&self, observed: &[Bit]) -> Option<u32> {
        assert_eq!(
            observed.len(),
            self.window() as usize,
            "window width must be 2s + 9"
        );
        // Pack the window (at most 2·MAX_STRENGTH + 9 = 23 bits, bit k
        // in bit k) and look its phase up; an unknown bit matches no
        // phase.
        let mut word = 0u32;
        for (k, b) in observed.iter().enumerate() {
            word |= u32::from(b.to_bool()?) << k;
        }
        let phases = &memo(self.strength).phases;
        let i = phases.binary_search_by_key(&word, |&(w, _)| w).ok()?;
        Some(phases[i].1)
    }

    /// Decodes the observed window against the expected marker index
    /// (same convention as `PeccCode::decode`: an over-shift by `e`
    /// makes the tap read index `expected − e`).
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != self.window()`.
    pub fn decode(&self, expected_index: i64, observed: &[Bit]) -> Verdict {
        let expected_phase = expected_index.rem_euclid(PERIOD as i64);
        let Some(observed_phase) = self.match_phase(observed) else {
            return Verdict::Uncorrectable;
        };
        let d = (expected_phase - observed_phase as i64).rem_euclid(PERIOD as i64);
        self.verdict_for_phase_difference(d as u32)
    }

    /// Classifies a *known* physical offset the way the decoder would
    /// see it. Unlike the cyclic code there is no aliasing short of a
    /// full ±64-domain excursion.
    pub fn classify_offset(&self, e: i32) -> Verdict {
        let d = (e as i64).rem_euclid(PERIOD as i64);
        self.verdict_for_phase_difference(d as u32)
    }

    fn verdict_for_phase_difference(&self, d: u32) -> Verdict {
        debug_assert!(d < PERIOD as u32);
        // Centre the phase difference: d ∈ (32, 64) is an under-shift.
        let signed = if d > PERIOD as u32 / 2 {
            d as i32 - PERIOD as i32
        } else {
            d as i32
        };
        if signed == 0 {
            Verdict::Clean
        } else if signed.unsigned_abs() <= self.strength {
            Verdict::Correctable(signed)
        } else {
            Verdict::Uncorrectable
        }
    }
}

/// Finds the first SmallRng64 seed whose 64-bit draw has all-distinct
/// windows of width `2s + 9`, and returns that pattern.
fn search(strength: u32) -> u64 {
    let width = 2 * strength + 9;
    'seed: for seed in 0u64.. {
        let pattern = SmallRng64::new(seed).next_u64();
        let window_at = |i: u64| -> u64 {
            // Cyclic read of `width` bits starting at bit `i`.
            (0..width as u64).fold(0, |acc, k| {
                acc | (pattern >> ((i + k) % PERIOD as u64) & 1) << k
            })
        };
        let mut seen = std::collections::HashSet::with_capacity(PERIOD);
        for i in 0..PERIOD as u64 {
            if !seen.insert(window_at(i)) {
                continue 'seed;
            }
        }
        return pattern;
    }
    unreachable!("some 64-bit pattern has distinct windows")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_globally_unique() {
        for s in 0..=3u32 {
            let code = MarkerCode::new(s);
            let windows: Vec<Vec<Bit>> = (0..64).map(|i| code.expected_window(i as i64)).collect();
            for i in 0..64 {
                for j in (i + 1)..64 {
                    assert_ne!(windows[i], windows[j], "s={s}: phases {i},{j} collide");
                }
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = MarkerCode::new(2);
        let b = MarkerCode::new(2);
        assert_eq!(a, b);
        assert_eq!(a.expected_window(17), b.expected_window(17));
    }

    #[test]
    fn decode_recovers_all_in_strength_offsets() {
        for s in 1..=3u32 {
            let code = MarkerCode::new(s);
            for believed in [0i64, 13, 100, -7] {
                for e in -(s as i64)..=(s as i64) {
                    let observed = code.expected_window(believed - e);
                    let want = if e == 0 {
                        Verdict::Clean
                    } else {
                        Verdict::Correctable(e as i32)
                    };
                    assert_eq!(code.decode(believed, &observed), want, "s={s} e={e}");
                }
            }
        }
    }

    #[test]
    fn beyond_strength_is_detected_not_aliased() {
        let code = MarkerCode::new(2);
        // The cyclic SECDED code of the same correction reach would
        // alias at ±4 and miscorrect at ±3; the marker detects both.
        for e in [3i32, -3, 4, -4, 7, 31, -31] {
            assert_eq!(code.classify_offset(e), Verdict::Uncorrectable, "e={e}");
            let observed = code.expected_window(20 - e as i64);
            assert_eq!(code.decode(20, &observed), Verdict::Uncorrectable, "e={e}");
        }
    }

    #[test]
    fn garbled_window_is_uncorrectable() {
        let code = MarkerCode::new(1);
        let mut observed = code.expected_window(0);
        observed[3] = Bit::Unknown;
        assert_eq!(code.decode(0, &observed), Verdict::Uncorrectable);
    }
}
