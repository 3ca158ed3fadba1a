//! Bit-accurate racetrack memory stripes.
//!
//! A racetrack stripe is a magnetic nanowire storing one bit per domain;
//! access ports are fixed transistor stacks the data must be *shifted*
//! past. This crate models that tape physically:
//!
//! * [`bit`] — the three-valued domain content (`0`, `1`, unknown —
//!   freshly shifted-in domains and misaligned reads are indeterminate);
//! * [`geometry`] — segment/port layout, overhead region sizing and
//!   head-position arithmetic for a data stripe;
//! * [`stripe`] — the physical tape: cells, the alignment state, and
//!   shift application with data falling off the ends;
//! * [`fault`] — pluggable shift fault models (ideal, calibrated to the
//!   paper's Table 2, scripted for tests).
//!
//! The data layout, the head position a controller believes in and the
//! lockstep stripe group holding one cache line live one layer up, in
//! `rtm_pecc::ProtectedStripe` and `rtm_pecc::group::ProtectedGroup`
//! (an unprotected stripe is `ProtectionKind::None`).
//!
//! # Examples
//!
//! ```
//! use rtm_model::ShiftOutcome;
//! use rtm_track::bit::Bit;
//! use rtm_track::stripe::Stripe;
//!
//! let mut stripe = Stripe::with_cells(vec![Bit::One, Bit::Zero, Bit::Zero, Bit::Zero]);
//! // A 1-step shift that over-shoots by one: the data moves two slots
//! // right, and unknown domains enter from the left.
//! let moved = stripe.apply_shift(1, ShiftOutcome::Pinned { offset: 1 });
//! assert_eq!(moved, 2);
//! assert_eq!(stripe.read_slot(2).unwrap(), Bit::One);
//! assert_eq!(stripe.read_slot(0).unwrap(), Bit::Unknown);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bit;
pub mod fault;
pub mod geometry;
pub mod stripe;

pub use bit::Bit;
pub use fault::{
    AliasFaultModel, CalibratedFaultModel, FaultModel, FaultModelChoice, GaussianFaultModel,
    IdealFaultModel, PinningFaultModel, ScriptedFaultModel, SelectedFaultModel,
};
pub use geometry::StripeGeometry;
pub use stripe::Stripe;
