//! Position error correction codes (p-ECC) — Section 4.2 of the Hi-fi
//! Playback paper.
//!
//! Bit-error ECC cannot see a shift that moved *every* bit by the same
//! amount; p-ECC can, by storing a known cyclic pattern in dedicated
//! domains read through extra ports. After each shift the controller
//! compares the observed pattern window against the window expected at
//! the believed head position: any phase difference *is* the position
//! error.
//!
//! * [`code`] — the cyclic square-wave code, window extraction, and the
//!   phase-difference decoder;
//! * [`layout`] — domain/port/guard budgets for SED, SECDED, the general
//!   m-step construction, and the overhead-region variant p-ECC-O;
//! * [`protected`] — the bit-accurate stripe: data and code regions,
//!   the believed head position, and detection/correction against
//!   physically simulated shifts (`ProtectionKind::None` is the
//!   unprotected stripe);
//! * [`group`] — the lockstep stripe group holding one cache line, with
//!   per-stripe repair and lazy materialisation.
//!
//! # Examples
//!
//! ```
//! use rtm_pecc::code::{PeccCode, Verdict};
//!
//! // SECDED p-ECC (corrects ±1, detects ±2).
//! let code = PeccCode::secded();
//! assert_eq!(code.classify_offset(0), Verdict::Clean);
//! assert_eq!(code.classify_offset(1), Verdict::Correctable(1));
//! assert_eq!(code.classify_offset(-1), Verdict::Correctable(-1));
//! assert_eq!(code.classify_offset(2), Verdict::Uncorrectable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod group;
pub mod layout;
pub mod protected;

pub use code::{PeccCode, Verdict};
pub use layout::{PeccLayout, ProtectionKind};
pub use protected::ProtectedStripe;
