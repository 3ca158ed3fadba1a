//! Synthetic PARSEC-like workload trace generation.
//!
//! The paper evaluates on the PARSEC suite under gem5. Real traces are
//! not redistributable, so this crate generates *synthetic* memory
//! access streams whose cache-relevant statistics are tuned per
//! workload: working-set size (capacity sensitivity), hot-set locality,
//! streaming share, read/write mix and memory intensity. The twelve
//! profiles carry the PARSEC program names they impersonate; the
//! substitution is documented in DESIGN.md.
//!
//! # Examples
//!
//! ```
//! use rtm_trace::{TraceGenerator, WorkloadProfile};
//!
//! let profile = WorkloadProfile::by_name("canneal").unwrap();
//! let mut gen = TraceGenerator::new(profile, 42);
//! let a = gen.next_access();
//! assert!(a.addr < profile.working_set_bytes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod mixed;
pub mod profile;
pub mod replay;
pub mod session;

pub use generator::{MemAccess, TraceGenerator};
pub use mixed::MixedTraceGenerator;
pub use profile::{seed_of, WorkloadProfile};
pub use session::TenantStream;
