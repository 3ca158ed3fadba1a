//! Bounded ring-buffer trace of shift-transaction events.
//!
//! Every stage of a racetrack shift transaction can emit an event:
//! the controller plans the shift ([`ShiftEvent::ShiftPlanned`]),
//! splits it at the safe distance ([`ShiftEvent::SafeDistanceSplit`]),
//! issues shift-then-stop pulses ([`ShiftEvent::StsPulse`]), the p-ECC
//! layer checks the landing position ([`ShiftEvent::PeccVerdict`]) and
//! possibly back-shifts to repair an overshoot
//! ([`ShiftEvent::BackShift`]).
//!
//! The trace is a bounded ring: once `capacity` events are held, the
//! oldest is dropped and a drop counter advances, so peak memory is
//! independent of how many transactions a run executes. Events carry a
//! global sequence number (never reused, so drops are detectable) and
//! the simulation cycle at which they were recorded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::ring::BoundedRing;

/// Default ring capacity (events held in memory).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Outcome of one p-ECC position check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeccOutcome {
    /// The code saw no position error.
    Clean,
    /// The code corrected an offset of `k` domains.
    Corrected(u32),
    /// The code detected an error it cannot correct (a DUE).
    DetectedUncorrectable,
}

/// One shift-transaction event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftEvent {
    /// The controller planned a shift transaction.
    ShiftPlanned {
        /// Requested shift distance in domains (absolute value).
        distance: u32,
        /// Number of sub-shifts the plan was split into.
        parts: u32,
        /// Total planned latency in memory cycles.
        latency_cycles: u64,
    },
    /// A shift-then-stop pulse sequence moving `distance` domains.
    StsPulse {
        /// Domains moved by this pulse sequence.
        distance: u32,
        /// Cycles the pulse sequence occupies.
        cycles: u64,
    },
    /// A p-ECC position check completed.
    PeccVerdict {
        /// What the code concluded.
        outcome: PeccOutcome,
    },
    /// A corrective back-shift of `steps` domains after an overshoot.
    BackShift {
        /// Domains shifted back.
        steps: u32,
    },
    /// A requested distance exceeded the safe cap and was split.
    SafeDistanceSplit {
        /// Requested distance in domains.
        distance: u32,
        /// Safe-distance cap applied.
        cap: u32,
        /// Sub-shifts produced.
        parts: u32,
    },
    /// A request entered a stripe-group queue in the serving layer.
    ReqEnqueued {
        /// Scheduler-assigned request id (monotonic per run).
        id: u64,
        /// Stripe group the request targets.
        group: u32,
    },
    /// A queued request was dispatched to its bank for service.
    ReqDispatched {
        /// Scheduler-assigned request id.
        id: u64,
        /// Stripe group the request targets.
        group: u32,
        /// Cycles the request waited in its queue before dispatch.
        queue_delay: u64,
    },
    /// A dispatched request finished (LLC service plus any memory
    /// fill).
    ReqCompleted {
        /// Scheduler-assigned request id.
        id: u64,
        /// Cycles between dispatch and completion.
        service_cycles: u64,
    },
    /// Admission stalled because a stripe-group queue was full.
    ReqBackpressure {
        /// Stripe group whose queue rejected the request.
        group: u32,
    },
}

impl ShiftEvent {
    /// Stable kind tag used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            ShiftEvent::ShiftPlanned { .. } => "ShiftPlanned",
            ShiftEvent::StsPulse { .. } => "StsPulse",
            ShiftEvent::PeccVerdict { .. } => "PeccVerdict",
            ShiftEvent::BackShift { .. } => "BackShift",
            ShiftEvent::SafeDistanceSplit { .. } => "SafeDistanceSplit",
            ShiftEvent::ReqEnqueued { .. } => "ReqEnqueued",
            ShiftEvent::ReqDispatched { .. } => "ReqDispatched",
            ShiftEvent::ReqCompleted { .. } => "ReqCompleted",
            ShiftEvent::ReqBackpressure { .. } => "ReqBackpressure",
        }
    }

    /// Whether this is a serving-layer queue event (as opposed to a
    /// shift-transaction event).
    pub fn is_queue_event(&self) -> bool {
        matches!(
            self,
            ShiftEvent::ReqEnqueued { .. }
                | ShiftEvent::ReqDispatched { .. }
                | ShiftEvent::ReqCompleted { .. }
                | ShiftEvent::ReqBackpressure { .. }
        )
    }
}

/// An event plus its trace metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEvent {
    /// Global sequence number, starting at 0, never reused. Gaps in a
    /// snapshot indicate dropped (overwritten) events.
    pub seq: u64,
    /// Simulation cycle at which the event was recorded.
    pub cycle: u64,
    /// The event payload.
    pub event: ShiftEvent,
}

/// A bounded, sequence-numbered event ring.
#[derive(Debug)]
pub struct EventTrace {
    enabled: AtomicBool,
    inner: Mutex<BoundedRing<TracedEvent>>,
}

impl Default for EventTrace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl EventTrace {
    /// Creates a disabled trace with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a disabled trace holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(BoundedRing::new(capacity)),
        }
    }

    /// Turns recording on or off. Off is the default; disabled
    /// recording calls cost one relaxed atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records an event at the given simulation cycle.
    pub fn record(&self, cycle: u64, event: ShiftEvent) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("event trace poisoned");
        let seq = inner.take_seq();
        inner.push(TracedEvent { seq, cycle, event });
    }

    /// Clears events and counters (the enabled flag and capacity are
    /// untouched).
    pub fn reset(&self) {
        self.inner.lock().expect("event trace poisoned").reset();
    }

    /// A point-in-time copy of the ring.
    pub fn snapshot(&self) -> EventTraceSnapshot {
        let inner = self.inner.lock().expect("event trace poisoned");
        EventTraceSnapshot {
            events: inner.buf.iter().copied().collect(),
            total: inner.next_seq,
            dropped: inner.dropped,
        }
    }
}

/// A copy of the ring contents at snapshot time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventTraceSnapshot {
    /// Retained events, in sequence order.
    pub events: Vec<TracedEvent>,
    /// Total events ever recorded (`= dropped + events.len()`).
    pub total: u64,
    /// Events overwritten by the ring bound.
    pub dropped: u64,
}

impl EventTraceSnapshot {
    /// Number of retained events of the given kind tag.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    }

    /// Encodes the snapshot as a JSON object with an ordered event
    /// stream.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total", Json::Num(self.total as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            (
                "events",
                Json::Arr(self.events.iter().map(event_to_json).collect()),
            ),
        ])
    }

    /// Decodes a snapshot previously produced by [`Self::to_json`].
    pub fn from_json(doc: &Json) -> Option<EventTraceSnapshot> {
        Some(EventTraceSnapshot {
            total: doc.get("total")?.as_u64()?,
            dropped: doc.get("dropped")?.as_u64()?,
            events: doc
                .get("events")?
                .as_arr()?
                .iter()
                .map(event_from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

fn event_to_json(e: &TracedEvent) -> Json {
    let mut pairs = vec![
        ("seq", Json::Num(e.seq as f64)),
        ("cycle", Json::Num(e.cycle as f64)),
        ("kind", Json::Str(e.event.kind().to_string())),
    ];
    match e.event {
        ShiftEvent::ShiftPlanned {
            distance,
            parts,
            latency_cycles,
        } => {
            pairs.push(("distance", Json::Num(distance as f64)));
            pairs.push(("parts", Json::Num(parts as f64)));
            pairs.push(("latency_cycles", Json::Num(latency_cycles as f64)));
        }
        ShiftEvent::StsPulse { distance, cycles } => {
            pairs.push(("distance", Json::Num(distance as f64)));
            pairs.push(("cycles", Json::Num(cycles as f64)));
        }
        ShiftEvent::PeccVerdict { outcome } => {
            let (name, k) = match outcome {
                PeccOutcome::Clean => ("clean", None),
                PeccOutcome::Corrected(k) => ("corrected", Some(k)),
                PeccOutcome::DetectedUncorrectable => ("detected_uncorrectable", None),
            };
            pairs.push(("outcome", Json::Str(name.to_string())));
            if let Some(k) = k {
                pairs.push(("k", Json::Num(k as f64)));
            }
        }
        ShiftEvent::BackShift { steps } => {
            pairs.push(("steps", Json::Num(steps as f64)));
        }
        ShiftEvent::SafeDistanceSplit {
            distance,
            cap,
            parts,
        } => {
            pairs.push(("distance", Json::Num(distance as f64)));
            pairs.push(("cap", Json::Num(cap as f64)));
            pairs.push(("parts", Json::Num(parts as f64)));
        }
        ShiftEvent::ReqEnqueued { id, group } => {
            pairs.push(("id", Json::Num(id as f64)));
            pairs.push(("group", Json::Num(group as f64)));
        }
        ShiftEvent::ReqDispatched {
            id,
            group,
            queue_delay,
        } => {
            pairs.push(("id", Json::Num(id as f64)));
            pairs.push(("group", Json::Num(group as f64)));
            pairs.push(("queue_delay", Json::Num(queue_delay as f64)));
        }
        ShiftEvent::ReqCompleted { id, service_cycles } => {
            pairs.push(("id", Json::Num(id as f64)));
            pairs.push(("service_cycles", Json::Num(service_cycles as f64)));
        }
        ShiftEvent::ReqBackpressure { group } => {
            pairs.push(("group", Json::Num(group as f64)));
        }
    }
    Json::obj(pairs)
}

fn event_from_json(doc: &Json) -> Option<TracedEvent> {
    let seq = doc.get("seq")?.as_u64()?;
    let cycle = doc.get("cycle")?.as_u64()?;
    let u32_field = |key: &str| doc.get(key).and_then(Json::as_u64).map(|v| v as u32);
    let event = match doc.get("kind")?.as_str()? {
        "ShiftPlanned" => ShiftEvent::ShiftPlanned {
            distance: u32_field("distance")?,
            parts: u32_field("parts")?,
            latency_cycles: doc.get("latency_cycles")?.as_u64()?,
        },
        "StsPulse" => ShiftEvent::StsPulse {
            distance: u32_field("distance")?,
            cycles: doc.get("cycles")?.as_u64()?,
        },
        "PeccVerdict" => ShiftEvent::PeccVerdict {
            outcome: match doc.get("outcome")?.as_str()? {
                "clean" => PeccOutcome::Clean,
                "corrected" => PeccOutcome::Corrected(u32_field("k")?),
                "detected_uncorrectable" => PeccOutcome::DetectedUncorrectable,
                _ => return None,
            },
        },
        "BackShift" => ShiftEvent::BackShift {
            steps: u32_field("steps")?,
        },
        "SafeDistanceSplit" => ShiftEvent::SafeDistanceSplit {
            distance: u32_field("distance")?,
            cap: u32_field("cap")?,
            parts: u32_field("parts")?,
        },
        "ReqEnqueued" => ShiftEvent::ReqEnqueued {
            id: doc.get("id")?.as_u64()?,
            group: u32_field("group")?,
        },
        "ReqDispatched" => ShiftEvent::ReqDispatched {
            id: doc.get("id")?.as_u64()?,
            group: u32_field("group")?,
            queue_delay: doc.get("queue_delay")?.as_u64()?,
        },
        "ReqCompleted" => ShiftEvent::ReqCompleted {
            id: doc.get("id")?.as_u64()?,
            service_cycles: doc.get("service_cycles")?.as_u64()?,
        },
        "ReqBackpressure" => ShiftEvent::ReqBackpressure {
            group: u32_field("group")?,
        },
        _ => return None,
    };
    Some(TracedEvent { seq, cycle, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = EventTrace::new();
        t.record(0, ShiftEvent::BackShift { steps: 1 });
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.total, 0);
    }

    #[test]
    fn sequence_numbers_and_cycles_are_preserved() {
        let t = EventTrace::new();
        t.set_enabled(true);
        t.record(
            10,
            ShiftEvent::StsPulse {
                distance: 4,
                cycles: 2,
            },
        );
        t.record(
            12,
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Clean,
            },
        );
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].seq, 0);
        assert_eq!(snap.events[1].seq, 1);
        assert_eq!(snap.events[0].cycle, 10);
        assert_eq!(snap.events[1].cycle, 12);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = EventTrace::with_capacity(8);
        t.set_enabled(true);
        for i in 0..100u32 {
            t.record(i as u64, ShiftEvent::BackShift { steps: i });
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 8, "ring stays bounded");
        assert_eq!(snap.total, 100);
        assert_eq!(snap.dropped, 92);
        // The retained window is the most recent events, in order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn json_round_trip_covers_every_kind() {
        let t = EventTrace::new();
        t.set_enabled(true);
        t.record(
            1,
            ShiftEvent::ShiftPlanned {
                distance: 32,
                parts: 2,
                latency_cycles: 18,
            },
        );
        t.record(
            2,
            ShiftEvent::SafeDistanceSplit {
                distance: 32,
                cap: 16,
                parts: 2,
            },
        );
        t.record(
            3,
            ShiftEvent::StsPulse {
                distance: 16,
                cycles: 9,
            },
        );
        t.record(
            4,
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Clean,
            },
        );
        t.record(
            5,
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Corrected(2),
            },
        );
        t.record(
            6,
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::DetectedUncorrectable,
            },
        );
        t.record(7, ShiftEvent::BackShift { steps: 2 });
        t.record(8, ShiftEvent::ReqEnqueued { id: 42, group: 7 });
        t.record(
            9,
            ShiftEvent::ReqDispatched {
                id: 42,
                group: 7,
                queue_delay: 15,
            },
        );
        t.record(
            10,
            ShiftEvent::ReqCompleted {
                id: 42,
                service_cycles: 33,
            },
        );
        t.record(11, ShiftEvent::ReqBackpressure { group: 7 });
        let snap = t.snapshot();
        let text = snap.to_json().pretty();
        let parsed = Json::parse(&text).expect("parse");
        let back = EventTraceSnapshot::from_json(&parsed).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn queue_events_are_distinguished() {
        assert!(ShiftEvent::ReqEnqueued { id: 0, group: 0 }.is_queue_event());
        assert!(ShiftEvent::ReqBackpressure { group: 0 }.is_queue_event());
        assert!(!ShiftEvent::BackShift { steps: 1 }.is_queue_event());
    }

    #[test]
    fn reset_restarts_sequence() {
        let t = EventTrace::new();
        t.set_enabled(true);
        t.record(0, ShiftEvent::BackShift { steps: 1 });
        t.reset();
        t.record(5, ShiftEvent::BackShift { steps: 2 });
        let snap = t.snapshot();
        assert_eq!(snap.total, 1);
        assert_eq!(snap.events[0].seq, 0);
    }

    #[test]
    fn count_kind_filters() {
        let t = EventTrace::new();
        t.set_enabled(true);
        t.record(
            0,
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Clean,
            },
        );
        t.record(1, ShiftEvent::BackShift { steps: 1 });
        t.record(
            2,
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Corrected(1),
            },
        );
        let snap = t.snapshot();
        assert_eq!(snap.count_kind("PeccVerdict"), 2);
        assert_eq!(snap.count_kind("BackShift"), 1);
        assert_eq!(snap.count_kind("StsPulse"), 0);
    }
}
