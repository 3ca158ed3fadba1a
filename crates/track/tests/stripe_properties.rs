//! Property tests for physical stripe movement.

use rtm_model::shift::ShiftOutcome;
use rtm_track::bit::Bit;
use rtm_track::stripe::Stripe;
use rtm_util::check::{run_cases, Gen};

/// A nonzero intended distance in `[-7, -1] ∪ [1, 7]`.
fn nonzero_intended(g: &mut Gen) -> i64 {
    let mag = g.i64_in(1, 7);
    if g.bool() {
        mag
    } else {
        -mag
    }
}

/// Movement composition: applying moves m1 then m2 leaves any cell
/// that never left the wire equal to its original neighbour at
/// offset m1 + m2.
#[test]
fn movement_composes() {
    run_cases(256, |g: &mut Gen| {
        let data = g.vec_of(16, 47, |g| g.bool());
        let m1 = g.i64_in(-5, 5);
        let m2 = g.i64_in(-5, 5);
        let bits: Vec<Bit> = data.iter().copied().map(Bit::from).collect();
        let mut s = Stripe::with_cells(bits.clone());
        if m1 != 0 {
            s.apply_movement(m1, true);
        }
        if m2 != 0 {
            s.apply_movement(m2, true);
        }
        let net = m1 + m2;
        let len = bits.len() as i64;
        for (i, &orig) in bits.iter().enumerate() {
            let dest = i as i64 + net;
            if dest < 0 || dest >= len {
                continue; // fell off the wire at the end state
            }
            // The cell also must not have left the wire at the
            // intermediate state.
            let mid = i as i64 + m1;
            if mid < 0 || mid >= len {
                continue;
            }
            assert_eq!(s.cells()[dest as usize], orig, "cell {i}");
        }
        assert_eq!(s.actual_offset(), net);
    });
}

/// Cells that fall off either end are replaced by Unknown and never
/// resurrect.
#[test]
fn fallen_cells_stay_unknown() {
    run_cases(64, |g: &mut Gen| {
        let shift = g.i64_in(1, 7);
        let bits: Vec<Bit> = (0..16).map(|i| Bit::from(i % 2 == 0)).collect();
        let mut s = Stripe::with_cells(bits);
        s.apply_movement(shift, true);
        s.apply_movement(-shift, true);
        // The rightmost `shift` cells crossed the right edge and are gone.
        let len = s.len();
        for i in (len - shift as usize)..len {
            assert_eq!(s.cells()[i], Bit::Unknown, "slot {i}");
        }
    });
}

/// apply_shift with a Pinned outcome always realigns; with a
/// StopInMiddle outcome always misaligns; realign() restores.
#[test]
fn alignment_tracking() {
    run_cases(256, |g: &mut Gen| {
        let intended = nonzero_intended(g);
        let offset = g.i32_in(-2, 2);
        let mut s = Stripe::new(32);
        s.apply_shift(intended, ShiftOutcome::Pinned { offset });
        assert!(s.is_aligned());
        s.apply_shift(
            intended,
            ShiftOutcome::StopInMiddle {
                lower: 0,
                frac: 0.5,
            },
        );
        assert!(!s.is_aligned());
        assert_eq!(s.read_slot(10).unwrap(), Bit::Unknown);
        s.realign();
        assert!(s.is_aligned());
    });
}

/// The realised movement of apply_shift matches intended plus the
/// direction-adjusted offset.
#[test]
fn realised_movement_formula() {
    run_cases(256, |g: &mut Gen| {
        let intended = nonzero_intended(g);
        let offset = g.i32_in(-2, 2);
        let mut s = Stripe::new(64);
        let before = s.actual_offset();
        let moved = s.apply_shift(intended, ShiftOutcome::Pinned { offset });
        assert_eq!(moved, intended + intended.signum() * offset as i64);
        assert_eq!(s.actual_offset() - before, moved);
    });
}

/// The rotate-and-fill stripe the ring replaced: every movement
/// rotates the whole cell vector and refills the cells that enter.
struct RotateAndFill {
    cells: Vec<Bit>,
    aligned: bool,
    actual_offset: i64,
    shifts_applied: u64,
}

impl RotateAndFill {
    fn new(cells: Vec<Bit>) -> Self {
        Self {
            cells,
            aligned: true,
            actual_offset: 0,
            shifts_applied: 0,
        }
    }

    fn apply_movement(&mut self, moved: i64, aligned_after: bool) {
        let len = self.cells.len() as i64;
        let m = moved.clamp(-len, len);
        if m > 0 {
            let m = m as usize;
            self.cells.rotate_right(m);
            self.cells[..m].fill(Bit::Unknown);
        } else if m < 0 {
            let m = (-m) as usize;
            self.cells.rotate_left(m);
            let start = self.cells.len() - m;
            self.cells[start..].fill(Bit::Unknown);
        }
        self.actual_offset += moved;
        self.aligned = aligned_after;
        self.shifts_applied += 1;
    }
}

fn any_bit(g: &mut Gen) -> Bit {
    [Bit::Zero, Bit::One, Bit::Unknown][g.usize_in(0, 2)]
}

/// Everything a reader can see of the ring equals the reference: the
/// cells, every slot read (and the first slot past the end), every run
/// of up to 23 adjacent slots (the widest tap window), which straddles
/// the ring's wrap point whenever the ring has turned, and the
/// diagnostics.
fn assert_same(s: &Stripe, r: &RotateAndFill, step: usize) {
    let len = r.cells.len();
    assert_eq!(s.len(), len);
    assert_eq!(s.cells(), r.cells, "step {step}");
    assert_eq!(s.is_aligned(), r.aligned, "step {step}");
    assert_eq!(s.actual_offset(), r.actual_offset, "step {step}");
    assert_eq!(s.shifts_applied(), r.shifts_applied, "step {step}");
    let sensed = |b: Bit| if r.aligned { b } else { Bit::Unknown };
    for (slot, &b) in r.cells.iter().enumerate() {
        assert_eq!(s.read_slot(slot), Ok(sensed(b)), "step {step} slot {slot}");
    }
    assert!(s.read_slot(len).is_err());
    let mut buf = [Bit::Unknown; 23];
    for first in 0..=len {
        for width in 0..=buf.len() {
            let slots = first..first + width;
            let want = (r.aligned && slots.end <= len).then(|| &r.cells[slots.clone()]);
            assert_eq!(
                s.read_slots(slots.clone(), &mut buf),
                want,
                "step {step} slots {slots:?}"
            );
        }
    }
}

/// The ring equals rotate-and-fill over random movement sequences:
/// movements of every size from 0 to two past the stripe's length, in
/// both directions, ending aligned or in a stop-in-middle state, mixed
/// with writes and realignments.
#[test]
fn ring_equals_rotate_and_fill() {
    run_cases(128, |g: &mut Gen| {
        let cells = g.vec_of(1, 40, any_bit);
        let len = cells.len() as i64;
        let mut s = Stripe::with_cells(cells.clone());
        let mut r = RotateAndFill::new(cells);
        assert_same(&s, &r, 0);
        for step in 1..=24 {
            match g.usize_in(0, 5) {
                0 => {
                    let slot = g.usize_in(0, r.cells.len() - 1);
                    let bit = any_bit(g);
                    let written = s.write_slot(slot, bit);
                    assert_eq!(written.is_ok(), r.aligned, "step {step}");
                    if r.aligned {
                        r.cells[slot] = bit;
                    }
                }
                1 => {
                    s.realign();
                    r.aligned = true;
                }
                _ => {
                    let moved = g.i64_in(-(len + 2), len + 2);
                    let aligned = g.usize_in(0, 3) != 0;
                    s.apply_movement(moved, aligned);
                    r.apply_movement(moved, aligned);
                }
            }
            assert_same(&s, &r, step);
        }
    });
}

/// Equality is the stripe's, not its storage's: two rings holding the
/// same slots at different starts are equal, and one differing slot
/// makes them unequal.
#[test]
fn equality_compares_slots_not_storage() {
    let mut a = Stripe::with_cells(vec![Bit::One; 5]);
    let mut b = a.clone();
    // Both end all-unknown at offset 5 after two operations, but the
    // ring of `a` turned once more than the ring of `b`.
    a.apply_movement(6, true);
    a.apply_movement(-1, true);
    b.apply_movement(5, true);
    b.apply_movement(0, true);
    assert_eq!(a.cells(), b.cells());
    assert_eq!(a, b);
    a.write_slot(0, Bit::Zero).unwrap();
    assert_ne!(a, b);
    b.write_slot(0, Bit::Zero).unwrap();
    assert_eq!(a, b);
}
