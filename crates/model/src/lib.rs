//! The position-error model for racetrack memory shift operations.
//!
//! This crate reproduces Section 3 ("Position Error") and Section 4.1
//! ("STS: Sub-threshold Shift") of the Hi-fi Playback paper (ISCA 2015):
//!
//! * [`params`] — the device parameters of the paper's Table 1 with their
//!   process/environment variations;
//! * [`shift`] — the Gaussian displacement-noise model those variations
//!   fold into, and a single-shot stochastic shift simulator producing
//!   out-of-step and stop-in-middle outcomes;
//! * [`sts`] — the two-stage sub-threshold shift and its latency model;
//! * [`montecarlo`] — Monte-Carlo estimation of position-error PDFs
//!   (the paper's Fig. 4) with Gaussian tail extrapolation, chunked
//!   across the `rtm-par` pool with thread-count-invariant output;
//! * [`analytic`] — the closed-form engine: exact Fig. 4 bin and
//!   Table 2 rate probabilities from erf bands on the `NoiseModel`
//!   Gaussian, plus a convolution layer composing per-shift offset
//!   distributions across access sequences;
//! * [`alias`] — Walker alias-table outcome sampling: one RNG draw and
//!   two array reads per simulated shift on the hot paths;
//! * [`rates`] — the canonical out-of-step rate table (the paper's
//!   Table 2) plus interpolation, and the MTTF-vs-rate curve of Fig. 1.
//!
//! The architecture layers (`rtm-controller`, `rtm-mem`,
//! `rtm-reliability`) consume [`rates::OutOfStepRates`]; the Monte-Carlo
//! machinery exists to *regenerate* such a table from first principles
//! and to validate its shape.
//!
//! # Examples
//!
//! ```
//! use rtm_model::rates::OutOfStepRates;
//!
//! let rates = OutOfStepRates::paper_calibration();
//! // Longer shifts are riskier (paper observation 1).
//! assert!(rates.rate(7, 1) > rates.rate(1, 1));
//! // ±2-step errors are dramatically rarer than ±1 (observation 2).
//! assert!(rates.rate(7, 2) < rates.rate(7, 1) * 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod analytic;
pub mod montecarlo;
pub mod params;
pub mod rates;
pub mod shift;
pub mod sts;

pub use alias::{AliasTable, OutcomeAliasSampler};
pub use analytic::{AnalyticEngine, Engine, OffsetDistribution};
pub use params::DeviceParams;
pub use rates::OutOfStepRates;
pub use shift::{ShiftOutcome, ShiftSimulator};
pub use sts::StsTiming;
