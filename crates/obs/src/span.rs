//! The one trace: hierarchical, cycle-stamped spans with integer
//! attributes.
//!
//! A span is one named interval of simulated time with an optional
//! parent, so a serving-layer request unfolds into the tree
//!
//! ```text
//! request {id, group}
//! ├── queue
//! ├── dispatch
//! │   └── plan_shift {distance, parts, cap}
//! │       ├── sts_pulse {distance}
//! │       ├── pecc_verify
//! │       └── ...
//! └── mem_fill
//! ```
//!
//! A point event is an *instant*, a span whose start equals its end:
//! the serving layer's root `backpressure {group}`, and the
//! bit-accurate stripe's `back_shift {steps}`, `pecc_clean`,
//! `pecc_corrected {k}` and `pecc_due`. Every event field is an
//! integer attribute and every record goes through one call,
//! [`SpanTrace::record`] (or [`SpanTrace::record_reserved`] for a
//! reserved id). `cap` rides on a `plan_shift` only when the plan
//! splits.
//!
//! At most `capacity` spans are held: the oldest is evicted when full
//! and a drop counter advances, so peak memory is independent of run
//! length and truncation is always detectable. Because the simulators
//! are discrete-event, every span's extent is known at the instant it
//! is created, so the API records *complete* spans — there is no open/
//! close pairing to get wrong.
//!
//! Ids are handed out under the trace mutex, monotonically, starting at
//! 1 (`0` means "no parent"), and are never reused. Within one
//! simulation thread the id stream is deterministic; when several
//! sweep workers record into one trace their spans interleave in
//! scheduling order, which is why the determinism gates in CI compare
//! attribution *tables* (built from per-cell accounting) rather than
//! raw span streams.
//!
//! Parent linkage across crate boundaries uses a thread-local current
//! parent: the serving layer opens a `dispatch` span and enters it with
//! [`ParentScope`], and the shift controller — which knows nothing
//! about scheduling — parents its `plan_shift` span on
//! [`current_parent`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::Json;

/// Default span-ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The `schema_version` a span dump carries; [`SpanTraceSnapshot::from_json`]
/// refuses any other.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotonic id, starting at 1; never reused. Gaps in a snapshot
    /// indicate dropped (overwritten) spans.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Stage name (`"request"`, `"plan_shift"`, `"sts_pulse"`, ...).
    pub name: String,
    /// First cycle covered by the span.
    pub start_cycle: u64,
    /// First cycle past the span (`end_cycle >= start_cycle`; equal for
    /// an instant).
    pub end_cycle: u64,
    /// Integer attributes, in recording order.
    attrs: Vec<(String, u64)>,
}

impl SpanRecord {
    fn new(id: u64, parent: u64, name: &str, start: u64, end: u64, attrs: &[(&str, u64)]) -> Self {
        Self {
            id,
            parent,
            name: name.to_string(),
            start_cycle: start,
            end_cycle: end.max(start),
            attrs: attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Cycles covered by the span (0 for an instant).
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// The value of attribute `key`, if the span carries it.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The attributes as a JSON object, or `None` when there are none.
    pub(crate) fn attrs_json(&self) -> Option<Json> {
        let attrs = self
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)));
        (!self.attrs.is_empty()).then(|| Json::Obj(attrs.collect()))
    }
}

thread_local! {
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
}

/// The span id new spans on this thread parent under (0 = root).
pub fn current_parent() -> u64 {
    CURRENT_PARENT.with(|c| c.get())
}

/// Makes `id` the current parent for the scope's lifetime; the previous
/// parent is restored on drop. Instrumentation layers that cannot pass
/// ids explicitly (the shift controller under the serving layer) read
/// [`current_parent`] instead.
#[derive(Debug)]
pub struct ParentScope {
    prev: u64,
}

impl ParentScope {
    /// Enters `id` as the current parent.
    pub fn enter(id: u64) -> Self {
        let prev = CURRENT_PARENT.with(|c| c.replace(id));
        Self { prev }
    }
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        CURRENT_PARENT.with(|c| c.set(self.prev));
    }
}

/// The ring behind the trace mutex.
#[derive(Debug)]
struct Ring {
    capacity: usize,
    spans: VecDeque<SpanRecord>,
    /// Ids handed out so far; the last one handed out.
    issued: u64,
    /// Spans evicted by the capacity bound.
    dropped: u64,
}

impl Ring {
    fn next_id(&mut self) -> u64 {
        self.issued += 1;
        self.issued
    }

    fn push(&mut self, span: SpanRecord) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }
}

/// A bounded ring of completed spans.
#[derive(Debug)]
pub struct SpanTrace {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl Default for SpanTrace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanTrace {
    /// Creates a disabled trace with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a disabled trace holding at most `capacity` spans (at
    /// least one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            ring: Mutex::new(Ring {
                capacity: capacity.max(1),
                spans: VecDeque::new(),
                issued: 0,
                dropped: 0,
            }),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("span trace poisoned")
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

    /// Records a completed span covering `[start_cycle, end_cycle)`
    /// under `parent` (0 = root) with integer attributes `attrs`, and
    /// returns its id, or 0 when the trace is disabled. `end_cycle` is
    /// clamped up to `start_cycle`; equal bounds record an instant.
    pub fn record(
        &self,
        parent: u64,
        name: &str,
        start_cycle: u64,
        end_cycle: u64,
        attrs: &[(&str, u64)],
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let mut ring = self.ring();
        let id = ring.next_id();
        ring.push(SpanRecord::new(
            id,
            parent,
            name,
            start_cycle,
            end_cycle,
            attrs,
        ));
        id
    }

    /// Reserves a span id without recording anything, for spans whose
    /// extent is not yet known but whose children record first — the
    /// serving layer reserves its `dispatch` span, enters it as the
    /// current parent around the LLC access (whose `plan_shift` spans
    /// nest under it), and records the reserved span afterwards via
    /// [`Self::record_reserved`]. Returns 0 when disabled.
    ///
    /// A reserved id counts towards a snapshot's `total` immediately;
    /// until its record lands the snapshot simply has a gap at that id
    /// (children recorded in between may precede their parent in ring
    /// order, which the ancestry walk handles).
    pub fn reserve(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.ring().next_id()
    }

    /// Records the span for a previously [`Self::reserve`]d id, as
    /// [`Self::record`] would. No-op when `id` is 0 (a disabled-time
    /// reservation) or recording is off.
    pub fn record_reserved(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        start_cycle: u64,
        end_cycle: u64,
        attrs: &[(&str, u64)],
    ) {
        if id == 0 || !self.enabled() {
            return;
        }
        let span = SpanRecord::new(id, parent, name, start_cycle, end_cycle, attrs);
        self.ring().push(span);
    }

    /// Clears spans and counters (the enabled flag and capacity are
    /// untouched).
    pub fn reset(&self) {
        let mut ring = self.ring();
        ring.spans.clear();
        ring.issued = 0;
        ring.dropped = 0;
    }

    /// A point-in-time copy of the ring.
    pub fn snapshot(&self) -> SpanTraceSnapshot {
        let ring = self.ring();
        SpanTraceSnapshot {
            spans: ring.spans.iter().cloned().collect(),
            total: ring.issued,
            dropped: ring.dropped,
        }
    }
}

/// A copy of the span ring at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTraceSnapshot {
    /// Retained spans, in recording order (id order, except that a
    /// reserved span lands where its record was filled in).
    pub spans: Vec<SpanRecord>,
    /// Span ids ever handed out (`>= dropped + spans.len()`; reserved
    /// ids count immediately).
    pub total: u64,
    /// Spans overwritten by the ring bound.
    pub dropped: u64,
}

impl SpanTraceSnapshot {
    /// Looks a retained span up by id.
    pub fn get(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The retained children of span `id`, in id order.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Cycles of `span` not covered by any retained child — the value a
    /// flamegraph assigns to the frame itself (0 for an instant).
    pub fn self_cycles(&self, span: &SpanRecord) -> u64 {
        let child_sum: u64 = self.children_of(span.id).iter().map(|c| c.duration()).sum();
        span.duration().saturating_sub(child_sum)
    }

    /// The `;`-joined ancestor path of a span, root first. A span whose
    /// parent fell out of the ring is treated as a root.
    pub fn path_of(&self, span: &SpanRecord) -> String {
        let mut names = vec![span.name.as_str()];
        let mut cursor = span.parent;
        // Reserved spans may carry a parent recorded after them, so id
        // order says nothing about ancestry; bound the walk by the
        // snapshot size so malformed (cyclic) input still terminates.
        while cursor != 0 && names.len() <= self.spans.len() {
            match self.get(cursor) {
                Some(p) => {
                    names.push(p.name.as_str());
                    cursor = p.parent;
                }
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    }

    /// Encodes the snapshot as the `--events` dump:
    /// `{"schema_version": 2, "total", "dropped", "spans": [...]}`, each
    /// span `{"id", "parent", "name", "start", "end", "attrs"}` with
    /// `attrs` omitted when empty.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self.spans.iter().map(|s| {
            let mut pairs = vec![
                ("id", num(s.id)),
                ("parent", num(s.parent)),
                ("name", Json::Str(s.name.clone())),
                ("start", num(s.start_cycle)),
                ("end", num(s.end_cycle)),
            ];
            pairs.extend(s.attrs_json().map(|attrs| ("attrs", attrs)));
            Json::obj(pairs)
        });
        Json::obj(vec![
            ("schema_version", num(TRACE_SCHEMA_VERSION)),
            ("total", num(self.total)),
            ("dropped", num(self.dropped)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }

    /// Decodes a dump produced by [`Self::to_json`]. `None` for any
    /// other `schema_version` (or none), for a malformed span, and for
    /// a span that names itself as its parent.
    pub fn from_json(doc: &Json) -> Option<SpanTraceSnapshot> {
        if doc.get("schema_version")?.as_u64()? != TRACE_SCHEMA_VERSION {
            return None;
        }
        let span = |s: &Json| {
            let id = s.get("id")?.as_u64()?;
            let parent = s.get("parent")?.as_u64()?;
            let attrs = match s.get("attrs") {
                None => Vec::new(),
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                    .collect::<Option<_>>()?,
                Some(_) => return None,
            };
            if parent == id {
                return None;
            }
            Some(SpanRecord {
                id,
                parent,
                name: s.get("name")?.as_str()?.to_string(),
                start_cycle: s.get("start")?.as_u64()?,
                end_cycle: s.get("end")?.as_u64()?,
                attrs,
            })
        };
        Some(SpanTraceSnapshot {
            total: doc.get("total")?.as_u64()?,
            dropped: doc.get("dropped")?.as_u64()?,
            spans: doc
                .get("spans")?
                .as_arr()?
                .iter()
                .map(span)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_returns_zero() {
        let t = SpanTrace::new();
        assert_eq!(t.record(0, "request", 0, 10, &[]), 0);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.total, 0);
    }

    #[test]
    fn ids_start_at_one_and_parents_link() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100, &[]);
        assert_eq!(req, 1);
        let q = t.record(req, "queue", 0, 30, &[]);
        let d = t.record(req, "dispatch", 30, 100, &[]);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.get(q).unwrap().parent, req);
        assert_eq!(snap.children_of(req).len(), 2);
        assert_eq!(snap.path_of(snap.get(d).unwrap()), "request;dispatch");
    }

    #[test]
    fn self_cycles_subtract_children() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100, &[]);
        t.record(req, "queue", 0, 30, &[]);
        t.record(req, "dispatch", 30, 90, &[]);
        let snap = t.snapshot();
        let root = snap.get(req).unwrap();
        assert_eq!(root.duration(), 100);
        assert_eq!(snap.self_cycles(root), 10);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = SpanTrace::with_capacity(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.record(0, "s", i, i + 1, &[]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.total, 10);
        assert_eq!(snap.dropped, 6);
        // The retained window is the most recent spans, in order.
        let window: Vec<(u64, u64)> = snap.spans.iter().map(|s| (s.id, s.start_cycle)).collect();
        assert_eq!(window, vec![(7, 6), (8, 7), (9, 8), (10, 9)]);
        // A reset after drops clears the window and both counters.
        t.reset();
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!((snap.total, snap.dropped), (0, 0));
        assert_eq!(t.record(0, "s", 0, 1, &[]), 1);
        // A zero capacity is clamped to one.
        let t = SpanTrace::with_capacity(0);
        t.set_enabled(true);
        t.record(0, "a", 0, 1, &[]);
        t.record(0, "b", 1, 2, &[]);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "b");
        assert_eq!(snap.dropped, 1);
    }

    #[test]
    fn dropped_parent_degrades_to_root_path() {
        let t = SpanTrace::with_capacity(1);
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100, &[]);
        t.record(req, "dispatch", 10, 90, &[]); // evicts "request"
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.path_of(&snap.spans[0]), "dispatch");
    }

    #[test]
    fn inverted_extent_is_clamped() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let id = t.record(0, "odd", 50, 20, &[]);
        let snap = t.snapshot();
        assert_eq!(snap.get(id).unwrap().duration(), 0);
    }

    #[test]
    fn parent_scope_nests_and_restores() {
        assert_eq!(current_parent(), 0);
        {
            let _outer = ParentScope::enter(7);
            assert_eq!(current_parent(), 7);
            {
                let _inner = ParentScope::enter(9);
                assert_eq!(current_parent(), 9);
            }
            assert_eq!(current_parent(), 7);
        }
        assert_eq!(current_parent(), 0);
    }

    #[test]
    fn attributes_and_instants_are_recorded() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let plan = t.record(0, "plan_shift", 10, 28, &[("distance", 5), ("parts", 2)]);
        let stall = t.record(0, "backpressure", 40, 40, &[("group", 7)]);
        let snap = t.snapshot();
        let p = snap.get(plan).unwrap();
        assert_eq!(p.attr("distance"), Some(5));
        assert_eq!(p.attr("parts"), Some(2));
        assert_eq!(p.attr("cap"), None);
        let b = snap.get(stall).unwrap();
        assert_eq!((b.start_cycle, b.duration()), (40, 0));
        assert_eq!(snap.self_cycles(b), 0);
        assert_eq!(b.attr("group"), Some(7));
    }

    #[test]
    fn json_round_trip_preserves_snapshot() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 5, 105, &[("id", 3), ("group", 9)]);
        let d = t.record(req, "dispatch", 20, 100, &[]);
        t.record(d, "plan_shift", 20, 60, &[("distance", 4), ("parts", 1)]);
        t.record(0, "pecc_due", 70, 70, &[]);
        let snap = t.snapshot();
        let doc = snap.to_json();
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(2));
        let text = doc.pretty();
        assert_eq!(text.matches("\"attrs\"").count(), 2, "empty attrs omitted");
        let parsed = Json::parse(&text).expect("parse");
        let back = SpanTraceSnapshot::from_json(&parsed).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn decoding_refuses_other_schema_versions() {
        let doc = |version: &str| {
            Json::parse(&format!(
                r#"{{{version}"total": 1, "dropped": 0,
                    "spans": [{{"id": 1, "parent": 0, "name": "x", "start": 0, "end": 5}}]}}"#
            ))
            .unwrap()
        };
        assert!(SpanTraceSnapshot::from_json(&doc(r#""schema_version": 2, "#)).is_some());
        assert!(SpanTraceSnapshot::from_json(&doc("")).is_none());
        assert!(SpanTraceSnapshot::from_json(&doc(r#""schema_version": 1, "#)).is_none());
    }

    #[test]
    fn decoding_refuses_a_span_that_parents_itself() {
        let doc = Json::parse(
            r#"{"schema_version": 2, "total": 1, "dropped": 0,
                "spans": [{"id": 1, "parent": 1, "name": "x", "start": 0, "end": 5}]}"#,
        )
        .unwrap();
        assert!(SpanTraceSnapshot::from_json(&doc).is_none());
    }

    #[test]
    fn reserved_spans_parent_children_recorded_first() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        // The serving-layer shape: dispatch id exists first, its
        // children record during the access, the request/dispatch
        // records land last.
        let dispatch = t.reserve();
        assert_eq!(dispatch, 1);
        let plan = t.record(dispatch, "plan_shift", 30, 70, &[]);
        t.record(plan, "sts_pulse", 30, 60, &[]);
        let req = t.record(0, "request", 0, 100, &[]);
        t.record(req, "queue", 0, 30, &[]);
        t.record_reserved(dispatch, req, "dispatch", 30, 90, &[]);
        let snap = t.snapshot();
        // Five ids handed out: the reservation plus four records
        // (record_reserved reuses the reserved id).
        assert_eq!(snap.total, 5);
        assert_eq!(snap.spans.len(), 5);
        let d = snap.get(dispatch).unwrap();
        assert_eq!(d.name, "dispatch");
        assert_eq!(d.parent, req);
        let p = snap.get(plan).unwrap();
        assert_eq!(snap.path_of(p), "request;dispatch;plan_shift");
        assert_eq!(snap.self_cycles(d), 90 - 30 - 40);
    }

    #[test]
    fn disabled_reservations_are_inert() {
        let t = SpanTrace::new();
        let id = t.reserve();
        assert_eq!(id, 0);
        t.record_reserved(id, 0, "x", 0, 10, &[]);
        assert_eq!(t.snapshot().total, 0);
    }

    #[test]
    fn reset_restarts_ids() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        t.record(0, "a", 0, 1, &[]);
        t.reset();
        let id = t.record(0, "b", 0, 1, &[]);
        assert_eq!(id, 1);
        assert_eq!(t.snapshot().total, 1);
    }
}
