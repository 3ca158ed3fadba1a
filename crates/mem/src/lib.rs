//! Trace-driven cache hierarchy simulator with a racetrack-memory LLC
//! backend.
//!
//! This crate replaces the paper's gem5 full-system setup with a
//! trace-driven model of the same Table 4 platform: private L1 data
//! caches, a shared L2, a last-level cache built from SRAM, STT-RAM or
//! racetrack memory, and DDR3 main memory. The racetrack LLC carries
//! per-group head-position registers and routes every shift through the
//! position-error-aware controller, so shift counts, latencies and
//! residual error probabilities come out of the same machinery the
//! paper evaluates.
//!
//! The hierarchy defaults to the paper's single-request-at-a-time LLC
//! access model, but does not require it: [`Hierarchy::with_llc`]
//! accepts any [`llc::LlcModel`], and the `rtm-serve` crate drives a
//! banked racetrack LLC through per-stripe-group request queues,
//! bank-level parallelism and pluggable scheduling policies.
//! [`hierarchy::run_shared`] runs one pass over a trace for several
//! LLCs at once — flat ones and racetrack [`ShiftBackEnd`]s sharing one
//! directory — which is how the sweeps simulate every configuration of
//! a workload together, and the scheme × fault-model matrix its cells.
//!
//! * [`cache`] — generic set-associative LRU cache bookkeeping;
//! * [`llc`] — the three LLC backends behind one interface, and the
//!   racetrack LLC's resolver and group probes, which score queued
//!   requests for a scheduler;
//! * [`hierarchy`] — the full system: trace in, statistics out.
//!
//! # Examples
//!
//! ```
//! use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
//! use rtm_trace::{TraceGenerator, WorkloadProfile};
//!
//! let profile = WorkloadProfile::by_name("swaptions").unwrap();
//! let mut sys = Hierarchy::new(LlcChoice::SramBaseline);
//! let result = sys.run(&mut TraceGenerator::new(profile, 1), 20_000);
//! assert_eq!(result.accesses, 20_000);
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod llc;
pub mod physical;

pub use cache::{AccessKind, Cache, CacheStats};
pub use hierarchy::{Hierarchy, LlcChoice, SimResult};
pub use llc::{LlcStats, RacetrackLlc, ShiftBackEnd, SimpleLlc};
