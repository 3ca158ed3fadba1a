//! Math, statistics, units and RNG substrate shared by the `hifi-rtm`
//! workspace.
//!
//! This crate carries no racetrack-memory semantics of its own; it provides
//! the numerical plumbing the rest of the reproduction is built on:
//!
//! * [`units`] — strongly-typed physical quantities ([`units::Seconds`],
//!   [`units::Picojoules`], [`units::SquareF`], …) so latency, energy and
//!   area never mix silently;
//! * [`math`] — special functions (`erfc`, Gaussian tail probabilities in
//!   linear and log space) needed by the position-error model;
//! * [`stats`] — online moments, histograms and summary statistics for
//!   Monte-Carlo output;
//! * [`fit`] — least-squares helpers used to extrapolate Monte-Carlo tails
//!   the same way the paper fits its 10⁹-sample distribution;
//! * [`rng`] — deterministic seeding utilities so every experiment is
//!   reproducible bit-for-bit;
//! * [`check`] — a tiny seeded property-check harness the test suites
//!   use in place of an external framework (offline builds);
//! * [`div`] — divisors fixed at construction, a shift and a mask for
//!   the power-of-two cache and bank geometries;
//! * [`arena`] — chunked arena + sparse paged byte map backing the lazy
//!   stripe-group materialisation at GB-scale capacities;
//! * [`sys`] — std-only process introspection (peak RSS from procfs).
//!
//! # Examples
//!
//! ```
//! use rtm_util::units::Seconds;
//! use rtm_util::math::normal_sf;
//!
//! let mttf = Seconds::from_years(10.0);
//! assert!(mttf.as_secs() > 3.0e8);
//! // One-sided Gaussian tail beyond 4 sigma:
//! assert!(normal_sf(4.0) < 4.0e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod check;
pub mod div;
pub mod fit;
pub mod math;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod units;
