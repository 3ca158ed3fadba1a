//! Unified observability for the `hifi-rtm` workspace.
//!
//! Simulation code across the workspace (shift controller, p-ECC
//! layer, LLC model, serving layer) emits into one process-wide
//! [`Observer`] holding two stores:
//!
//! * a [`metrics::MetricsRegistry`] — the one metric store — of
//!   counters, gauges and fixed-bucket histograms with p50/p95/p99
//!   summaries, keyed by `(name, label set)`: tenant, bank, scheme,
//!   policy; an unlabeled metric has the empty label set;
//! * a [`span::SpanTrace`] — the one trace — a bounded ring of
//!   hierarchical, cycle-stamped spans (`request → dispatch →
//!   plan_shift → sts_pulse`) carrying integer attributes, where a
//!   point event (a back-pressure stall, a p-ECC verdict) is an
//!   instant span; exportable as folded stacks (flamegraphs) and
//!   Chrome `trace_event` JSON.
//!
//! Beside them sit [`attrib::AttributionTable`] — exact per-cell cycle
//! attribution (components sum to the measured total within one
//! cycle) — and [`timer::Progress`] for sweep heartbeats.
//!
//! Everything is **off by default**: a disabled recording call is a
//! single relaxed atomic load, so instrumentation costs nothing in
//! uninstrumented runs. The `repro` binary switches recording on when
//! `--metrics` / `--labels` / `--events` / `--progress` flags are
//! present and writes machine-readable reports via [`json::Json`] and
//! [`export::to_csv`] — both implemented here because offline builds
//! cannot depend on external serialisation crates.
//!
//! # Examples
//!
//! ```
//! let obs = rtm_obs::global();
//! obs.registry().set_enabled(true);
//! obs.spans().set_enabled(true);
//!
//! obs.registry().counter_add("shift.count", 1);
//! obs.registry().observe("shift.latency_cycles", 18.0);
//! let plan = rtm_obs::record_span(0, "plan_shift", 7, 25, &[("distance", 3), ("parts", 1)]);
//! rtm_obs::record_span(plan, "pecc_verify", 24, 25, &[]);
//! rtm_obs::record_span(0, "back_shift", 30, 30, &[("steps", 1)]);
//!
//! let snap = obs.registry().snapshot();
//! assert_eq!(snap.counter("shift.count"), Some(1));
//! let trace = obs.spans().snapshot();
//! assert_eq!(trace.get(plan).and_then(|s| s.attr("distance")), Some(3));
//! # obs.registry().set_enabled(false);
//! # obs.spans().set_enabled(false);
//! # obs.registry().reset();
//! # obs.spans().reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod export;
pub mod json;
pub mod metrics;
pub mod span;
pub mod timer;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use metrics::MetricsRegistry;
use span::SpanTrace;

/// The process-wide metric store and span trace.
#[derive(Debug, Default)]
pub struct Observer {
    registry: MetricsRegistry,
    spans: SpanTrace,
}

impl Observer {
    /// Creates a fresh, disabled observer (tests use private
    /// observers; production code shares [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric store (unlabeled and labeled metrics alike).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span trace.
    pub fn spans(&self) -> &SpanTrace {
        &self.spans
    }
}

/// The process-wide observer instrumented code emits into.
pub fn global() -> &'static Observer {
    static GLOBAL: OnceLock<Observer> = OnceLock::new();
    GLOBAL.get_or_init(Observer::new)
}

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Switches heartbeat progress reporting on or off (off by default);
/// read by [`timer::Progress`] at construction.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether heartbeat progress reporting is on.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Adds to a counter in the global registry (no-op while disabled).
pub fn counter_add(name: &str, delta: u64) {
    global().registry().counter_add(name, delta);
}

/// Records into a default-bucket histogram in the global registry
/// (no-op while disabled).
pub fn observe(name: &str, value: f64) {
    global().registry().observe(name, value);
}

/// Records a completed span with integer attributes into the global
/// span trace and returns its id (0 while disabled; equal bounds record
/// an instant). To nest under the enclosing [`span::ParentScope`],
/// check [`span::SpanTrace::enabled`] first and pass
/// [`span::current_parent`], so a disabled call reads no thread-local.
pub fn record_span(
    parent: u64,
    name: &str,
    start_cycle: u64,
    end_cycle: u64,
    attrs: &[(&str, u64)],
) -> u64 {
    global()
        .spans()
        .record(parent, name, start_cycle, end_cycle, attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_disabled_by_default_and_shared() {
        let a = global();
        let b = global();
        assert!(std::ptr::eq(a, b));
        // Free functions are no-ops while disabled.
        counter_add("t.count", 1);
        observe("t.hist", 1.0);
        assert_eq!(record_span(0, "back_shift", 0, 0, &[("steps", 1)]), 0);
        assert_eq!(a.registry().snapshot().counter("t.count"), None);
        assert_eq!(a.spans().snapshot().total, 0);
    }

    #[test]
    fn progress_flag_toggles() {
        assert!(!progress_enabled());
        set_progress(true);
        assert!(progress_enabled());
        set_progress(false);
    }
}
