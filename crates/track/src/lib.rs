//! Bit-accurate racetrack memory stripes and arrays.
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
//!   paper's Table 2, scripted for tests);
//! * [`array`](mod@array) — lockstep groups of stripes holding one cache line
//!   (the paper interleaves a 64 B line over 512 stripes).
//!
//! # Examples
//!
//! ```
//! use rtm_track::geometry::StripeGeometry;
//! use rtm_track::stripe::SegmentedStripe;
//! use rtm_track::bit::Bit;
//!
//! // 64 data domains served by 8 read/write ports (Lseg = 8).
//! let geom = StripeGeometry::new(64, 8).unwrap();
//! let mut stripe = SegmentedStripe::zeroed(geom);
//! stripe.write_domain(13, Bit::One).unwrap();
//! assert_eq!(stripe.read_domain(13).unwrap(), Bit::One);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bit;
pub mod fault;
pub mod geometry;
pub mod ports;
pub mod stripe;

pub use array::StripeArray;
pub use bit::Bit;
pub use fault::{
    AliasFaultModel, CalibratedFaultModel, FaultModel, FaultModelChoice, GaussianFaultModel,
    IdealFaultModel, PinningFaultModel, ScriptedFaultModel, SelectedFaultModel,
};
pub use geometry::StripeGeometry;
pub use stripe::{SegmentedStripe, Stripe};
