//! Area, latency and energy cost models for racetrack memory designs.
//!
//! Three sources feed this crate, mirroring the paper's methodology:
//!
//! * [`area`] — a circuit-level area model for stripes and access
//!   ports, calibrated to the paper's Fig. 7 (average area per data bit
//!   versus port count) and reused for the Fig. 13 sensitivity study;
//! * [`technology`] — the evaluated system's Table 4 constants: L1/L2
//!   parameters and the SRAM / STT-RAM / racetrack LLC design points
//!   (latency, per-access energy, leakage), plus main memory;
//! * [`overhead`] — the paper's Table 5: per-scheme detection and
//!   correction time/energy and controller area, published numbers from
//!   the authors' 45 nm RTL synthesis carried as constants (synthesis
//!   is not reproducible offline — see DESIGN.md);
//! * [`energy`] — composition helpers turning operation counts into
//!   LLC energy figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod energy;
pub mod overhead;
pub mod technology;

pub use area::AreaModel;
pub use energy::LlcEnergyModel;
pub use overhead::{ProtectionOverhead, Scheme};
pub use technology::{CacheTech, LlcDesign, SystemConfig};
