//! A bit-accurate stripe carrying p-ECC, with physical detection and
//! correction of simulated position errors.
//!
//! Physical layout (left → right), following Figs. 5, 6 and 8:
//!
//! ```text
//! [left guard m] [data D] [overhead Lseg-1] [right guard m] [code region]
//! ```
//!
//! The code region holds the cyclic pattern and is read by `m + 1`
//! fixed taps. Its length `Lseg + 3m + 2` keeps every tap over a valid
//! code bit for any head position in `[0, Lseg − 1]` even when walls are
//! off by up to `±(m + 1)` steps — the paper's worst cases of
//! Fig. 6(c)/(d). For p-ECC-O the same decoding runs against code kept
//! in the end/overhead regions (refreshed by shift-and-write); this
//! simulation models that as a mirrored code region at each end, while
//! the *cost* accounting of the reuse lives in [`crate::layout`].
//!
//! The believed head position advances by the intended distance of every
//! shift; the physical cells move by the realised distance. `check()`
//! reads the taps and decodes; `correct()` issues the corrective
//! back-shift (which may itself suffer an error — callers re-check, as
//! the paper's controller does).

use crate::code::{StripeChecker, Verdict};
use crate::layout::{LayoutError, PeccLayout, ProtectionKind};
use rtm_track::bit::Bit;
use rtm_track::fault::FaultModel;
use rtm_track::geometry::StripeGeometry;
use rtm_track::stripe::{Stripe, StripeError};

/// Taps a check can copy into its stack buffer: the widest marker
/// window (strength 7, `2·7 + 9`). Every cyclic window the paper's
/// geometry accepts is narrower.
const TAP_BUFFER: usize = 23;

/// A stripe with physical p-ECC protection.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedStripe {
    layout: PeccLayout,
    checker: Option<StripeChecker>,
    stripe: Stripe,
    believed_head: i64,
    data_start: usize,
    code_start: usize,
    /// Slot of the leading p-ECC tap (taps occupy consecutive slots).
    tap_base: usize,
    shift_ops: u64,
    corrections: u64,
}

impl ProtectedStripe {
    /// Builds a protected stripe with all data domains zeroed and the
    /// p-ECC region initialised error-free.
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] for invalid strength/geometry combos.
    pub fn new(geometry: StripeGeometry, kind: ProtectionKind) -> Result<Self, LayoutError> {
        let layout = PeccLayout::new(geometry, kind)?;
        let checker = kind.checker();
        let m = kind.strength() as usize;
        let lseg = geometry.segment_len();
        let d = geometry.data_len();
        let guards = match kind {
            ProtectionKind::None | ProtectionKind::Sed => 0,
            _ => m,
        };
        // Code region length as used by the physical simulation. The
        // general formula keeps every tap over a valid pattern bit for
        // any head position in [0, Lseg − 1] even when walls are off by
        // up to ±(m + 1): (Lseg − 1) + 2(m + 1) + window. For the
        // cyclic family (window = m + 1) this is the paper's
        // Lseg + 3m + 2; for the marker kinds the wider aperiodic
        // window stretches it. For p-ECC-O a mirrored region also sits
        // at the left end.
        let window = checker.map_or(0, |c| c.window() as usize);
        let sim_code_len = match kind {
            ProtectionKind::None => 0,
            ProtectionKind::Sed => lseg + 1,
            _ => lseg - 1 + 2 * (m + 1) + window,
        };
        let left_code = match kind {
            ProtectionKind::OverheadRegion { .. } => sim_code_len,
            _ => 0,
        };
        let data_start = left_code + guards;
        let code_start = data_start + d + geometry.overhead_len() + guards;
        // The code region needs its own travel margin at the stripe end:
        // at head position s its bits sit s slots to the right of their
        // initial slots (plus up to m+1 more under an error), and bits
        // pushed off the wire are physically destroyed.
        let tail = if sim_code_len == 0 {
            0
        } else {
            geometry.max_shift() + m + 1
        };
        let total = code_start + sim_code_len + tail;

        let mut cells = vec![Bit::Unknown; total];
        for c in cells.iter_mut().skip(data_start).take(d) {
            *c = Bit::Zero;
        }
        if let Some(checker) = checker {
            for i in 0..sim_code_len {
                cells[code_start + i] = checker.bit_at(i as i64);
                if left_code > 0 {
                    cells[i] = checker.bit_at(i as i64 - (left_code as i64 - sim_code_len as i64));
                }
            }
        }
        let tap_base = match kind {
            ProtectionKind::None => 0,
            ProtectionKind::Sed => code_start + lseg,
            _ => code_start + lseg + m,
        };
        Ok(Self {
            layout,
            checker,
            stripe: Stripe::with_cells(cells),
            believed_head: 0,
            data_start,
            code_start,
            tap_base,
            shift_ops: 0,
            corrections: 0,
        })
    }

    /// The physical budget of this stripe.
    pub fn layout(&self) -> &PeccLayout {
        &self.layout
    }

    /// The believed head position.
    pub fn believed_head(&self) -> i64 {
        self.believed_head
    }

    /// Ground-truth actual head position (believed + latent error);
    /// diagnostic only.
    pub fn actual_head(&self) -> i64 {
        self.stripe.actual_offset()
    }

    /// True when no latent position error exists.
    pub fn is_synchronised(&self) -> bool {
        self.believed_head == self.stripe.actual_offset() && self.stripe.is_aligned()
    }

    /// Number of shift operations issued (including corrective ones).
    pub fn shift_ops(&self) -> u64 {
        self.shift_ops
    }

    /// Number of corrective back-shifts issued.
    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    /// Shifts by `delta` steps (positive = right) with outcomes drawn
    /// from `faults`. The believed head advances by `delta` regardless
    /// of what physically happened.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0` or `|delta|` exceeds the scheme's
    /// `max_shift_per_op`.
    pub fn shift(&mut self, delta: i64, faults: &mut dyn FaultModel) {
        assert!(delta != 0, "zero-distance shift is a no-op");
        assert!(
            delta.unsigned_abs() as usize <= self.layout.max_shift_per_op,
            "shift of {delta} exceeds max {} for {}",
            self.layout.max_shift_per_op,
            self.layout.kind
        );
        let outcome = faults.sample(delta.unsigned_abs() as u32);
        self.stripe.apply_shift(delta, outcome);
        self.believed_head += delta;
        self.shift_ops += 1;
    }

    /// Reads the p-ECC taps at the current physical state.
    ///
    /// Returns an empty vector for an unprotected stripe, and all
    /// [`Bit::Unknown`] while the walls are misaligned.
    pub fn read_taps(&self) -> Vec<Bit> {
        let Some(checker) = self.checker else {
            return Vec::new();
        };
        let mut taps = vec![Bit::Unknown; checker.window() as usize];
        let window = self.tap_base..self.tap_base + taps.len();
        match self.stripe.read_slots(window, &mut taps) {
            Some(read) => read.to_vec(),
            None => taps,
        }
    }

    /// Runs p-ECC detection: compares the observed tap window against
    /// the window expected at the believed head position. The taps are
    /// read in place, or copied into a stack buffer when the window
    /// straddles the ring's wrap point, so a check allocates nothing
    /// unless its window is wider than the widest marker window.
    ///
    /// Unprotected stripes always report [`Verdict::Clean`] (they cannot
    /// see anything).
    pub fn check(&self) -> Verdict {
        let Some(checker) = self.checker else {
            return Verdict::Clean;
        };
        let expected_index = (self.tap_base - self.code_start) as i64 - self.believed_head;
        let width = checker.window() as usize;
        let mut stack = [Bit::Unknown; TAP_BUFFER];
        let mut heap;
        let buf: &mut [Bit] = if width <= TAP_BUFFER {
            &mut stack
        } else {
            heap = vec![Bit::Unknown; width];
            &mut heap
        };
        match self
            .stripe
            .read_slots(self.tap_base..self.tap_base + width, buf)
        {
            Some(taps) => checker.decode(expected_index, taps),
            // Garbage taps match no phase.
            None => Verdict::Uncorrectable,
        }
    }

    /// Applies the corrective back-shift for a `Correctable(k)` verdict:
    /// the walls over-shifted by `k`, so shift `−k` *without* advancing
    /// the believed head. The corrective shift itself runs under
    /// `faults` and can fail — callers must re-[`check`](Self::check).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn correct(&mut self, k: i32, faults: &mut dyn FaultModel) {
        assert!(k != 0, "correcting a zero offset is meaningless");
        let outcome = faults.sample(k.unsigned_abs());
        self.stripe.apply_shift(-(k as i64), outcome);
        self.shift_ops += 1;
        self.corrections += 1;
        rtm_obs::counter_add("pecc.back_shifts", 1);
        rtm_obs::counter_add("pecc.back_shift_steps", k.unsigned_abs() as u64);
        self.record_instant("back_shift", &[("steps", u64::from(k.unsigned_abs()))]);
    }

    /// Full protected shift transaction: shift, check, correct (retrying
    /// up to `max_retries` corrective rounds), as the error-aware
    /// controller of Section 5 does. Returns the final verdict —
    /// [`Verdict::Clean`] when the data is known-aligned,
    /// [`Verdict::Uncorrectable`] when a DUE must be raised.
    pub fn shift_checked(
        &mut self,
        delta: i64,
        faults: &mut dyn FaultModel,
        max_retries: u32,
    ) -> Verdict {
        self.shift(delta, faults);
        let mut verdict = self.check();
        self.record_verdict(verdict);
        let mut rounds = 0;
        while let Verdict::Correctable(k) = verdict {
            if rounds >= max_retries {
                self.record_verdict(Verdict::Uncorrectable);
                return Verdict::Uncorrectable;
            }
            self.correct(k, faults);
            verdict = self.check();
            self.record_verdict(verdict);
            rounds += 1;
        }
        verdict
    }

    /// Emits a sampled (bit-accurate) p-ECC verdict into the global
    /// observer: a counter, and an instant named after the verdict.
    /// No-op when observability is off.
    fn record_verdict(&self, verdict: Verdict) {
        match verdict {
            Verdict::Clean => {
                rtm_obs::counter_add("pecc.verdict.clean", 1);
                self.record_instant("pecc_clean", &[]);
            }
            Verdict::Correctable(k) => {
                rtm_obs::counter_add("pecc.verdict.corrected", 1);
                self.record_instant("pecc_corrected", &[("k", u64::from(k.unsigned_abs()))]);
            }
            Verdict::Uncorrectable => {
                rtm_obs::counter_add("pecc.verdict.due", 1);
                self.record_instant("pecc_due", &[]);
            }
        }
    }

    /// Records an instant span under the caller's current parent,
    /// timestamped with the stripe's operation count (this layer has no
    /// cycle clock). A disabled trace costs one relaxed load.
    fn record_instant(&self, name: &str, attrs: &[(&str, u64)]) {
        let spans = rtm_obs::global().spans();
        if spans.enabled() {
            let t = self.shift_ops;
            spans.record(rtm_obs::span::current_parent(), name, t, t, attrs);
        }
    }

    /// The physical slot under which data domain `d` sits when the
    /// believed head serves it.
    ///
    /// # Errors
    ///
    /// Returns [`StripeError::HeadOutOfRange`] when the believed head
    /// does not match `d`'s required position.
    pub(crate) fn domain_slot(&self, d: usize) -> Result<usize, StripeError> {
        let geometry = &self.layout.geometry;
        if self.believed_head != geometry.head_position_for(d) as i64 {
            return Err(StripeError::HeadOutOfRange {
                head: self.believed_head,
                max: geometry.max_shift(),
            });
        }
        Ok(self.data_start + geometry.port_slot(geometry.port_of_domain(d)))
    }

    /// Senses physical `slot` through its port.
    pub(crate) fn read_slot(&self, slot: usize) -> Result<Bit, StripeError> {
        self.stripe.read_slot(slot)
    }

    /// Programs physical `slot` through its port.
    pub(crate) fn write_slot(&mut self, slot: usize, bit: Bit) -> Result<(), StripeError> {
        self.stripe.write_slot(slot, bit)
    }

    /// Reads data domain `d` at the current head position.
    ///
    /// # Errors
    ///
    /// Returns [`StripeError::HeadOutOfRange`] when the believed head
    /// does not match `d`'s required position.
    pub fn read_domain(&self, d: usize) -> Result<Bit, StripeError> {
        self.read_slot(self.domain_slot(d)?)
    }

    /// Writes data domain `d` at the current head position.
    ///
    /// # Errors
    ///
    /// Like [`ProtectedStripe::read_domain`], plus
    /// [`StripeError::Misaligned`] in a stop-in-middle state.
    pub fn write_domain(&mut self, d: usize, bit: Bit) -> Result<(), StripeError> {
        let slot = self.domain_slot(d)?;
        self.write_slot(slot, bit)
    }

    /// Moves the believed head to `target` via checked shifts bounded by
    /// the scheme's maximum per-operation distance. Returns the worst
    /// verdict encountered.
    ///
    /// # Panics
    ///
    /// Panics if `target` exceeds the geometry's head range.
    pub fn seek_checked(&mut self, target: usize, faults: &mut dyn FaultModel) -> Verdict {
        assert!(
            target <= self.layout.geometry.max_shift(),
            "head target {target} out of range"
        );
        let mut worst = Verdict::Clean;
        while self.believed_head != target as i64 {
            let remaining = target as i64 - self.believed_head;
            let step = remaining.clamp(
                -(self.layout.max_shift_per_op as i64),
                self.layout.max_shift_per_op as i64,
            );
            let v = self.shift_checked(step, faults, 3);
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

    fn secded_stripe() -> ProtectedStripe {
        ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap()
    }

    #[test]
    fn clean_shifts_check_clean_everywhere() {
        let mut s = secded_stripe();
        let mut ideal = IdealFaultModel;
        for target in [7usize, 0, 3, 6, 1, 5, 2, 4, 0] {
            assert_eq!(s.seek_checked(target, &mut ideal), Verdict::Clean);
            assert_eq!(s.check(), Verdict::Clean, "at head {target}");
            assert!(s.is_synchronised());
        }
    }

    #[test]
    fn sed_detects_single_step_error() {
        let mut s =
            ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::Sed).unwrap();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
        s.shift(3, &mut faults);
        assert_eq!(
            s.check(),
            Verdict::Uncorrectable,
            "SED detects but cannot correct"
        );
    }

    #[test]
    fn secded_corrects_plus_one_everywhere() {
        for start in 0..=6i64 {
            let mut s = secded_stripe();
            let mut ideal = IdealFaultModel;
            if start > 0 {
                s.seek_checked(start as usize, &mut ideal);
            }
            let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
            s.shift(1, &mut faults);
            assert_eq!(s.check(), Verdict::Correctable(1), "start {start}");
            s.correct(1, &mut IdealFaultModel);
            assert_eq!(s.check(), Verdict::Clean);
            assert!(s.is_synchronised());
        }
    }

    #[test]
    fn secded_corrects_minus_one() {
        let mut s = secded_stripe();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: -1 }]);
        s.shift(3, &mut faults);
        assert_eq!(s.check(), Verdict::Correctable(-1));
        s.correct(-1, &mut IdealFaultModel);
        assert_eq!(s.check(), Verdict::Clean);
        assert!(s.is_synchronised());
    }

    #[test]
    fn secded_flags_two_step_as_due() {
        let mut s = secded_stripe();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 2 }]);
        s.shift(2, &mut faults);
        assert_eq!(s.check(), Verdict::Uncorrectable);
    }

    #[test]
    fn stop_in_middle_reads_garble_the_taps() {
        let mut s = secded_stripe();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::StopInMiddle {
            lower: 0,
            frac: 0.5,
        }]);
        s.shift(2, &mut faults);
        assert_eq!(s.check(), Verdict::Uncorrectable);
    }

    #[test]
    fn shift_checked_repairs_in_one_transaction() {
        let mut s = secded_stripe();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
        let v = s.shift_checked(3, &mut faults, 3);
        assert_eq!(v, Verdict::Clean);
        assert!(s.is_synchronised());
        assert_eq!(s.corrections(), 1);
        assert_eq!(s.shift_ops(), 2);
    }

    #[test]
    fn shift_checked_survives_error_during_correction() {
        let mut s = secded_stripe();
        // First shift over-shoots; the corrective −1 shift *also*
        // over-shoots (offset +1 in its own direction = no net fix);
        // the second corrective attempt succeeds.
        let mut faults = ScriptedFaultModel::new([
            ShiftOutcome::Pinned { offset: 1 },
            ShiftOutcome::Pinned { offset: 1 },
            ShiftOutcome::Pinned { offset: 0 },
        ]);
        let v = s.shift_checked(3, &mut faults, 3);
        assert_eq!(v, Verdict::Clean);
        assert!(s.is_synchronised());
        assert!(s.corrections() >= 1);
    }

    #[test]
    fn shift_checked_gives_up_after_retry_budget() {
        let mut s = secded_stripe();
        // Every correction attempt keeps failing by +1 — after the retry
        // budget the transaction must surface a DUE rather than loop.
        let outcomes: Vec<ShiftOutcome> =
            std::iter::repeat_n(ShiftOutcome::Pinned { offset: 1 }, 10).collect();
        let mut faults = ScriptedFaultModel::new(outcomes);
        let v = s.shift_checked(3, &mut faults, 2);
        assert_eq!(v, Verdict::Uncorrectable);
    }

    #[test]
    fn data_round_trip_with_protection() {
        for kind in [ProtectionKind::None, ProtectionKind::SECDED] {
            let mut s = ProtectedStripe::new(StripeGeometry::paper_default(), kind).unwrap();
            let mut ideal = IdealFaultModel;
            let geom = s.layout().geometry;
            // Write a pattern across all domains using checked seeks.
            for d in 0..geom.data_len() {
                let bit = Bit::from(d % 5 == 0);
                s.seek_checked(geom.head_position_for(d), &mut ideal);
                s.write_domain(d, bit).unwrap();
            }
            // Walk the head across its whole range and back: the
            // overhead region absorbs the data pushed right.
            assert_eq!(s.seek_checked(0, &mut ideal), Verdict::Clean);
            assert_eq!(s.seek_checked(geom.max_shift(), &mut ideal), Verdict::Clean);
            assert_eq!(s.seek_checked(0, &mut ideal), Verdict::Clean);
            for d in 0..geom.data_len() {
                s.seek_checked(geom.head_position_for(d), &mut ideal);
                assert_eq!(
                    s.read_domain(d).unwrap(),
                    Bit::from(d % 5 == 0),
                    "{kind} domain {d}"
                );
            }
        }
    }

    #[test]
    fn data_survives_error_and_correction() {
        let mut s = secded_stripe();
        let mut ideal = IdealFaultModel;
        let geom = s.layout().geometry;
        s.seek_checked(geom.head_position_for(20), &mut ideal);
        s.write_domain(20, Bit::One).unwrap();
        // An over-shift error on the way to another domain, repaired by
        // the checked transaction.
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
        let target = geom.head_position_for(33);
        let cur = s.believed_head();
        let delta = target as i64 - cur;
        let v = s.shift_checked(delta.clamp(-3, 3), &mut faults, 3);
        assert_eq!(v, Verdict::Clean);
        // Return and verify the datum survived (guard domains absorbed
        // the transient over-shift).
        s.seek_checked(geom.head_position_for(20), &mut ideal);
        assert_eq!(s.read_domain(20).unwrap(), Bit::One);
    }

    #[test]
    fn pecc_o_variant_corrects_with_single_step_shifts() {
        let mut s = ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::SECDED_O)
            .unwrap();
        assert_eq!(s.layout().max_shift_per_op, 1);
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
        let v = s.shift_checked(1, &mut faults, 3);
        assert_eq!(v, Verdict::Clean);
        assert!(s.is_synchronised());
    }

    #[test]
    fn pecc_o_rejects_multi_step_shift() {
        let mut s = ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::SECDED_O)
            .unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.shift(2, &mut IdealFaultModel)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn unprotected_stripe_is_blind() {
        let mut s =
            ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::None).unwrap();
        let geom = s.layout().geometry;
        // Domain 11 holds the only 1.
        s.seek_checked(geom.head_position_for(11), &mut IdealFaultModel);
        s.write_domain(11, Bit::One).unwrap();
        s.seek_checked(0, &mut IdealFaultModel);
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
        s.shift(3, &mut faults);
        assert_eq!(s.check(), Verdict::Clean, "no code, no detection");
        assert!(!s.is_synchronised(), "...but the data is silently corrupt");
        assert!(s.read_taps().is_empty());
        // A +1 slip on a 3-step shift: the head is believed at 3 but
        // sits at 4, so reading domain 12 (served at head 3) silently
        // returns its neighbour's bit.
        assert_eq!(s.believed_head(), 3);
        assert_eq!(s.actual_head(), 4);
        assert_eq!(geom.head_position_for(12), 3);
        assert_eq!(s.read_domain(12).unwrap(), Bit::One);
    }

    #[test]
    fn wrong_head_accesses_and_out_of_range_seeks_are_refused() {
        let mut s =
            ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::None).unwrap();
        // Domain 0 is served at head 7; the head is at 0.
        let wrong_head = StripeError::HeadOutOfRange { head: 0, max: 7 };
        assert_eq!(s.read_domain(0), Err(wrong_head));
        assert_eq!(s.write_domain(0, Bit::One), Err(wrong_head));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.seek_checked(8, &mut IdealFaultModel)
        }));
        assert!(r.is_err(), "head 8 is past the last head position, 7");
    }

    #[test]
    fn marker_protected_stripe_corrects_two_step_errors() {
        // The stream-codec kinds carry the aperiodic marker pattern;
        // bit-accurate checks behave like a strength-2 code.
        for kind in [ProtectionKind::CHEE_KIAH, ProtectionKind::VAHID_2DI] {
            let mut s = ProtectedStripe::new(StripeGeometry::paper_default(), kind).unwrap();
            for e in [-2i32, -1, 1, 2] {
                let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: e }]);
                let v = s.shift_checked(3, &mut faults, 3);
                assert_eq!(v, Verdict::Clean, "{kind} e={e}");
                assert!(s.is_synchronised());
                s.seek_checked(0, &mut IdealFaultModel);
            }
        }
    }

    #[test]
    fn marker_protected_stripe_never_aliases_at_the_cyclic_period() {
        // A +4 slip aliases to Clean under cyclic SECDED (period 4) but
        // is an honest DUE under the marker kinds.
        let mut cyc = secded_stripe();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 4 }]);
        cyc.shift(3, &mut faults);
        assert_eq!(cyc.check(), Verdict::Clean, "cyclic aliases silently");
        assert!(!cyc.is_synchronised());

        for kind in [ProtectionKind::CHEE_KIAH, ProtectionKind::VAHID_2DI] {
            let mut s = ProtectedStripe::new(StripeGeometry::paper_default(), kind).unwrap();
            let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 4 }]);
            s.shift(3, &mut faults);
            assert_eq!(s.check(), Verdict::Uncorrectable, "{kind}");
        }
    }

    #[test]
    fn marker_protected_data_round_trip() {
        let mut s =
            ProtectedStripe::new(StripeGeometry::paper_default(), ProtectionKind::CHEE_KIAH)
                .unwrap();
        let mut ideal = IdealFaultModel;
        let geom = s.layout().geometry;
        for d in [0usize, 17, 40, 63] {
            s.seek_checked(geom.head_position_for(d), &mut ideal);
            s.write_domain(d, Bit::One).unwrap();
        }
        for d in [0usize, 17, 40, 63] {
            s.seek_checked(geom.head_position_for(d), &mut ideal);
            assert_eq!(s.read_domain(d).unwrap(), Bit::One, "domain {d}");
        }
    }

    #[test]
    fn wide_window_across_the_wrap_point_is_checked() {
        // Strength 23 on 32-domain segments: 24 taps, more than the
        // check's stack buffer holds. A 90-step under-shift turns the
        // ring so that the tap window straddles its wrap point; the
        // taps past it are cells that entered unknown, so the check
        // reports a DUE instead of panicking on a short buffer.
        let geom = StripeGeometry::new(128, 4).unwrap();
        let mut s = ProtectedStripe::new(geom, ProtectionKind::Correcting { m: 23 }).unwrap();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: -90 }]);
        s.shift(1, &mut faults);
        let taps = s.read_taps();
        assert_eq!(taps.len(), 24);
        assert!(taps.contains(&Bit::Unknown));
        assert_eq!(s.check(), Verdict::Uncorrectable);
    }

    #[test]
    fn stronger_code_corrects_deeper_errors() {
        let geom = StripeGeometry::new(64, 4).unwrap(); // Lseg = 16
        let mut s = ProtectedStripe::new(geom, ProtectionKind::Correcting { m: 3 }).unwrap();
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 3 }]);
        s.shift(5, &mut faults);
        assert_eq!(s.check(), Verdict::Correctable(3));
        s.correct(3, &mut IdealFaultModel);
        assert!(s.is_synchronised());
        // ±4 is detected, not corrected.
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 4 }]);
        s.shift(5, &mut faults);
        assert_eq!(s.check(), Verdict::Uncorrectable);
    }
}
