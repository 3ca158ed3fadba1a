//! The physical tape: cells, alignment and shift application.

use crate::bit::Bit;
use rtm_model::shift::ShiftOutcome;
use std::fmt;

/// Errors from stripe operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripeError {
    /// An access targeted a slot outside the physical stripe.
    SlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Physical stripe length.
        len: usize,
    },
    /// A write was attempted while the domains are not aligned to the
    /// notches (stop-in-middle state) — the write current would program
    /// an unpredictable domain.
    Misaligned,
    /// A domain access would fall outside the data region at the current
    /// head position (controller bug or unrecovered position error).
    HeadOutOfRange {
        /// Believed head position.
        head: i64,
        /// Maximum legal head position.
        max: usize,
    },
}

impl fmt::Display for StripeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripeError::SlotOutOfRange { slot, len } => {
                write!(f, "slot {slot} outside stripe of length {len}")
            }
            StripeError::Misaligned => {
                write!(
                    f,
                    "stripe is in a stop-in-middle state; access is indeterminate"
                )
            }
            StripeError::HeadOutOfRange { head, max } => {
                write!(f, "head position {head} outside [0, {max}]")
            }
        }
    }
}

impl std::error::Error for StripeError {}

/// A bare physical stripe: a row of domains that can be shifted along
/// the wire, with domains falling off the ends replaced by [`Bit::Unknown`].
///
/// `Stripe` knows nothing about segments or ports — that layer is
/// `rtm_pecc::ProtectedStripe`. It *does* track ground truth for diagnostics:
/// the actual cumulative shift applied (including error offsets) and
/// whether the walls are currently pinned in notches.
///
/// The cells are stored as a ring: physical slot `i` lives at storage
/// index `(start + i) mod len`. A movement of `m` steps moves `start`
/// and overwrites only the `|m|` cells that enter the wire, so a shift
/// costs the steps moved, not the stripe's length. Equality compares
/// the stripe slot by slot, whatever the two rings' starts.
#[derive(Debug, Clone)]
pub struct Stripe {
    cells: Box<[Bit]>,
    /// Storage index of physical slot 0.
    start: u32,
    aligned: bool,
    /// Ground-truth cumulative shift (right positive), including errors.
    actual_offset: i64,
    shifts_applied: u64,
}

impl Stripe {
    /// Creates a stripe of `len` domains, all unknown (as fabricated).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `len > u32::MAX`.
    pub fn new(len: usize) -> Self {
        Self::with_cells(vec![Bit::Unknown; len])
    }

    /// Creates a stripe with the given initial cell contents.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or longer than `u32::MAX` domains.
    pub fn with_cells(cells: Vec<Bit>) -> Self {
        assert!(!cells.is_empty(), "stripe must have at least one domain");
        assert!(u32::try_from(cells.len()).is_ok(), "stripe too long");
        Self {
            cells: cells.into_boxed_slice(),
            start: 0,
            aligned: true,
            actual_offset: 0,
            shifts_applied: 0,
        }
    }

    /// Physical length in domains.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false — a stripe has at least one domain.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when all walls are pinned in notch regions.
    pub fn is_aligned(&self) -> bool {
        self.aligned
    }

    /// Ground-truth cumulative shift including error offsets
    /// (diagnostic; a real controller cannot observe this).
    pub fn actual_offset(&self) -> i64 {
        self.actual_offset
    }

    /// Number of shift operations applied.
    pub fn shifts_applied(&self) -> u64 {
        self.shifts_applied
    }

    /// The raw cells in physical slot order (diagnostic; copies them
    /// out of the ring).
    pub fn cells(&self) -> Vec<Bit> {
        self.slots().collect()
    }

    /// The cells in physical slot order.
    fn slots(&self) -> impl Iterator<Item = Bit> + '_ {
        let (tail, head) = self.cells.split_at(self.start as usize);
        head.iter().chain(tail).copied()
    }

    /// Storage index of physical `slot` (`slot ≤ len`; slot `len`, the
    /// end of an empty run at the stripe's end, maps to slot 0's).
    fn index(&self, slot: usize) -> usize {
        let i = self.start as usize + slot;
        if i >= self.cells.len() {
            i - self.cells.len()
        } else {
            i
        }
    }

    /// Reads the domain at physical `slot` through a port.
    ///
    /// Returns [`Bit::Unknown`] when the stripe is misaligned: the MTJ
    /// under the port straddles two domains and senses garbage.
    ///
    /// # Errors
    ///
    /// [`StripeError::SlotOutOfRange`] if `slot` is outside the stripe.
    pub fn read_slot(&self, slot: usize) -> Result<Bit, StripeError> {
        let len = self.cells.len();
        if slot >= len {
            return Err(StripeError::SlotOutOfRange { slot, len });
        }
        if self.aligned {
            Ok(self.cells[self.index(slot)])
        } else {
            Ok(Bit::Unknown)
        }
    }

    /// Reads the domains at the consecutive physical `slots` through
    /// adjacent ports: `None` when the stripe is misaligned (every port
    /// senses garbage, as in [`Stripe::read_slot`]) or when `slots` runs
    /// off the stripe. A run that is contiguous in the ring's storage is
    /// lent in place; one that straddles the wrap point is copied into
    /// the front of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the run straddles the wrap point and `buf` is shorter
    /// than `slots`.
    pub fn read_slots<'a>(
        &'a self,
        slots: std::ops::Range<usize>,
        buf: &'a mut [Bit],
    ) -> Option<&'a [Bit]> {
        let len = self.cells.len();
        if !self.aligned || slots.start > slots.end || slots.end > len {
            return None;
        }
        let first = self.index(slots.start);
        if let Some(run) = self.cells.get(first..first + slots.len()) {
            return Some(run);
        }
        let out = &mut buf[..slots.len()];
        let (near, far) = out.split_at_mut(len - first);
        near.copy_from_slice(&self.cells[first..]);
        far.copy_from_slice(&self.cells[..far.len()]);
        Some(out)
    }

    /// Writes the domain at physical `slot` through a read/write port.
    ///
    /// # Errors
    ///
    /// * [`StripeError::Misaligned`] while in a stop-in-middle state;
    /// * [`StripeError::SlotOutOfRange`] if `slot` is outside the stripe.
    pub fn write_slot(&mut self, slot: usize, bit: Bit) -> Result<(), StripeError> {
        if !self.aligned {
            return Err(StripeError::Misaligned);
        }
        let len = self.cells.len();
        if slot >= len {
            return Err(StripeError::SlotOutOfRange { slot, len });
        }
        let i = self.index(slot);
        self.cells[i] = bit;
        Ok(())
    }

    /// Applies a physical movement of `moved` steps (positive = data
    /// moves right) and records whether walls ended pinned.
    ///
    /// Domains pushed past either end are lost; domains entering are
    /// [`Bit::Unknown`]. Only the entering cells are touched: the ring
    /// turns by `moved`, and the storage of the cells that fell off
    /// holds the cells that enter.
    pub fn apply_movement(&mut self, moved: i64, aligned_after: bool) {
        let len = self.cells.len();
        let m = moved.unsigned_abs().min(len as u64) as usize;
        if moved > 0 {
            // Slot 0 moves to the storage of old slot len − m.
            self.start = self.index(len - m) as u32;
            self.fill_unknown(0, m);
        } else if moved < 0 {
            self.start = self.index(m % len) as u32;
            self.fill_unknown(len - m, m);
        }
        self.actual_offset += moved;
        self.aligned = aligned_after;
        self.shifts_applied += 1;
    }

    /// Sets the `n` physical slots from `first` (in range, `n ≤ len`)
    /// to [`Bit::Unknown`]. A shift moves a few steps, so the cells are
    /// stored one at a time: two `fill` calls (each a `memset`) timed
    /// slower in the stripe and group kernels.
    fn fill_unknown(&mut self, first: usize, n: usize) {
        for slot in first..first + n {
            let i = self.index(slot);
            self.cells[i] = Bit::Unknown;
        }
    }

    /// Applies a shift *intended* to move `intended` steps (positive =
    /// right) whose stochastic outcome was `outcome`.
    ///
    /// Out-of-step offsets and stop-in-middle fractions from the fault
    /// model are expressed in the direction of travel; this translates
    /// them into absolute movement. Returns the realised movement in
    /// steps (the integer notch the walls ended at, or just below for a
    /// stop-in-middle outcome).
    ///
    /// # Panics
    ///
    /// Panics if `intended == 0` (a zero-distance shift is a controller
    /// no-op and never reaches the stripe).
    pub fn apply_shift(&mut self, intended: i64, outcome: ShiftOutcome) -> i64 {
        assert!(intended != 0, "zero-distance shifts never reach the stripe");
        let dir = intended.signum();
        match outcome {
            ShiftOutcome::Pinned { offset } => {
                let moved = intended + dir * offset as i64;
                self.apply_movement(moved, true);
                moved
            }
            ShiftOutcome::StopInMiddle { lower, .. } => {
                // The walls sit between notches (lower, lower + 1) in the
                // direction of travel.
                let moved = intended + dir * lower as i64;
                self.apply_movement(moved, false);
                moved
            }
        }
    }

    /// Re-pins walls into notches (models the recovery pulse a
    /// controller issues after detecting a stop-in-middle state; the
    /// data movement, if any, is applied separately).
    pub fn realign(&mut self) {
        self.aligned = true;
    }
}

impl PartialEq for Stripe {
    fn eq(&self, other: &Self) -> bool {
        self.cells.len() == other.cells.len()
            && self.aligned == other.aligned
            && self.actual_offset == other.actual_offset
            && self.shifts_applied == other.shifts_applied
            && self.slots().eq(other.slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stripe_is_unknown_and_aligned() {
        let s = Stripe::new(8);
        assert_eq!(s.len(), 8);
        assert!(s.is_aligned());
        assert!(s.cells().iter().all(|&b| b == Bit::Unknown));
    }

    #[test]
    fn read_write_slot() {
        let mut s = Stripe::new(4);
        s.write_slot(2, Bit::One).unwrap();
        assert_eq!(s.read_slot(2).unwrap(), Bit::One);
        assert!(matches!(
            s.read_slot(4),
            Err(StripeError::SlotOutOfRange { slot: 4, len: 4 })
        ));
    }

    #[test]
    fn movement_right_drops_rightmost_and_injects_unknown() {
        let mut s = Stripe::with_cells(vec![Bit::One, Bit::Zero, Bit::One]);
        s.apply_movement(1, true);
        assert_eq!(s.cells(), &[Bit::Unknown, Bit::One, Bit::Zero]);
        assert_eq!(s.actual_offset(), 1);
    }

    #[test]
    fn movement_left_drops_leftmost() {
        let mut s = Stripe::with_cells(vec![Bit::One, Bit::Zero, Bit::One]);
        s.apply_movement(-2, true);
        assert_eq!(s.cells(), &[Bit::One, Bit::Unknown, Bit::Unknown]);
        assert_eq!(s.actual_offset(), -2);
    }

    #[test]
    fn shift_right_then_left_restores_middle() {
        let mut s = Stripe::with_cells(vec![Bit::Zero, Bit::One, Bit::Zero, Bit::One, Bit::Zero]);
        s.apply_shift(2, ShiftOutcome::Pinned { offset: 0 });
        s.apply_shift(-2, ShiftOutcome::Pinned { offset: 0 });
        // Data that never left the stripe is intact; both ends lost 2.
        assert_eq!(s.cells()[2], Bit::Zero);
        assert_eq!(s.actual_offset(), 0);
        assert_eq!(s.shifts_applied(), 2);
    }

    #[test]
    fn out_of_step_moves_further_than_intended() {
        let mut s = Stripe::new(10);
        let moved = s.apply_shift(3, ShiftOutcome::Pinned { offset: 1 });
        assert_eq!(moved, 4);
        assert!(s.is_aligned());
        // In the left direction the over-shift also goes further left.
        let moved = s.apply_shift(-3, ShiftOutcome::Pinned { offset: 1 });
        assert_eq!(moved, -4);
    }

    #[test]
    fn stop_in_middle_blocks_reads_and_writes() {
        let mut s = Stripe::with_cells(vec![Bit::One; 6]);
        s.apply_shift(
            2,
            ShiftOutcome::StopInMiddle {
                lower: 0,
                frac: 0.4,
            },
        );
        assert!(!s.is_aligned());
        assert_eq!(s.read_slot(3).unwrap(), Bit::Unknown);
        assert_eq!(s.write_slot(3, Bit::Zero), Err(StripeError::Misaligned));
        s.realign();
        assert!(s.is_aligned());
        assert!(s.read_slot(3).unwrap().is_known());
    }

    #[test]
    #[should_panic]
    fn zero_shift_panics() {
        let mut s = Stripe::new(4);
        let _ = s.apply_shift(0, ShiftOutcome::Pinned { offset: 0 });
    }
}
