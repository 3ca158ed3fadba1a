//! Hierarchical, cycle-stamped span tracing.
//!
//! A span is one named interval of simulated time with an optional
//! parent, so a serving-layer request unfolds into the tree
//!
//! ```text
//! request
//! ├── queue
//! ├── dispatch
//! │   └── plan_shift
//! │       ├── sts_pulse
//! │       ├── pecc_verify
//! │       └── ...
//! └── mem_fill
//! ```
//!
//! Spans follow the same bounded-ring discipline as the event trace
//! (see [`crate::events`]): at most `capacity` spans are held, the
//! oldest is evicted when full, and a drop counter advances so
//! truncation is always detectable. Because the simulators are
//! discrete-event, every span's extent is known at the instant it is
//! created, so the API records *complete* spans — there is no open/
//! close pairing to get wrong.
//!
//! Ids are handed out under the trace mutex, monotonically, starting at
//! 1 (`0` means "no parent"). Within one simulation thread the id
//! stream is deterministic; when several sweep workers record into one
//! trace their spans interleave in scheduling order, which is why the
//! determinism gates in CI compare attribution *tables* (built from
//! per-cell accounting) rather than raw span streams.
//!
//! Parent linkage across crate boundaries uses a thread-local current
//! parent: the serving layer opens a `dispatch` span and enters it with
//! [`ParentScope`], and the shift controller — which knows nothing
//! about scheduling — parents its `plan_shift` span on
//! [`current_parent`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::ring::BoundedRing;

/// Default span-ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

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
    /// First cycle past the span (`end_cycle >= start_cycle`).
    pub end_cycle: u64,
}

impl SpanRecord {
    /// Cycles covered by the span.
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
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

/// A bounded ring of completed spans.
#[derive(Debug)]
pub struct SpanTrace {
    enabled: AtomicBool,
    inner: Mutex<BoundedRing<SpanRecord>>,
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

    /// Creates a disabled trace holding at most `capacity` spans.
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

    /// Records a completed span covering `[start_cycle, end_cycle)`
    /// under `parent` (0 = root) and returns its id, or 0 when the
    /// trace is disabled. `end_cycle` is clamped up to `start_cycle`.
    pub fn record(&self, parent: u64, name: &str, start_cycle: u64, end_cycle: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let mut inner = self.inner.lock().expect("span trace poisoned");
        let id = inner.take_seq() + 1;
        inner.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_cycle,
            end_cycle: end_cycle.max(start_cycle),
        });
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
        self.inner.lock().expect("span trace poisoned").take_seq() + 1
    }

    /// Records the span for a previously [`Self::reserve`]d id. No-op
    /// when `id` is 0 (a disabled-time reservation) or recording is off.
    pub fn record_reserved(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        start_cycle: u64,
        end_cycle: u64,
    ) {
        if id == 0 || !self.enabled() {
            return;
        }
        self.inner
            .lock()
            .expect("span trace poisoned")
            .push(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                start_cycle,
                end_cycle: end_cycle.max(start_cycle),
            });
    }

    /// Clears spans and counters (the enabled flag and capacity are
    /// untouched).
    pub fn reset(&self) {
        self.inner.lock().expect("span trace poisoned").reset();
    }

    /// A point-in-time copy of the ring.
    pub fn snapshot(&self) -> SpanTraceSnapshot {
        let inner = self.inner.lock().expect("span trace poisoned");
        SpanTraceSnapshot {
            spans: inner.buf.iter().cloned().collect(),
            total: inner.next_seq,
            dropped: inner.dropped,
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
    /// flamegraph assigns to the frame itself.
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

    /// Encodes the snapshot as a JSON object with an ordered span
    /// stream.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total", Json::Num(self.total as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("id", Json::Num(s.id as f64)),
                                ("parent", Json::Num(s.parent as f64)),
                                ("name", Json::Str(s.name.clone())),
                                ("start", Json::Num(s.start_cycle as f64)),
                                ("end", Json::Num(s.end_cycle as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a snapshot previously produced by [`Self::to_json`].
    pub fn from_json(doc: &Json) -> Option<SpanTraceSnapshot> {
        Some(SpanTraceSnapshot {
            total: doc.get("total")?.as_u64()?,
            dropped: doc.get("dropped")?.as_u64()?,
            spans: doc
                .get("spans")?
                .as_arr()?
                .iter()
                .map(|s| {
                    Some(SpanRecord {
                        id: s.get("id")?.as_u64()?,
                        parent: s.get("parent")?.as_u64()?,
                        name: s.get("name")?.as_str()?.to_string(),
                        start_cycle: s.get("start")?.as_u64()?,
                        end_cycle: s.get("end")?.as_u64()?,
                    })
                })
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
        assert_eq!(t.record(0, "request", 0, 10), 0);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.total, 0);
    }

    #[test]
    fn ids_start_at_one_and_parents_link() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100);
        assert_eq!(req, 1);
        let q = t.record(req, "queue", 0, 30);
        let d = t.record(req, "dispatch", 30, 100);
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
        let req = t.record(0, "request", 0, 100);
        t.record(req, "queue", 0, 30);
        t.record(req, "dispatch", 30, 90);
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
            t.record(0, "s", i, i + 1);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.total, 10);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.spans[0].id, 7);
    }

    #[test]
    fn dropped_parent_degrades_to_root_path() {
        let t = SpanTrace::with_capacity(1);
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100);
        t.record(req, "dispatch", 10, 90); // evicts "request"
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.path_of(&snap.spans[0]), "dispatch");
    }

    #[test]
    fn inverted_extent_is_clamped() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let id = t.record(0, "odd", 50, 20);
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
    fn json_round_trip_preserves_snapshot() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 5, 105);
        let d = t.record(req, "dispatch", 20, 100);
        t.record(d, "plan_shift", 20, 60);
        let snap = t.snapshot();
        let text = snap.to_json().pretty();
        let parsed = Json::parse(&text).expect("parse");
        let back = SpanTraceSnapshot::from_json(&parsed).expect("decode");
        assert_eq!(back, snap);
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
        let plan = t.record(dispatch, "plan_shift", 30, 70);
        t.record(plan, "sts_pulse", 30, 60);
        let req = t.record(0, "request", 0, 100);
        t.record(req, "queue", 0, 30);
        t.record_reserved(dispatch, req, "dispatch", 30, 90);
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
        t.record_reserved(id, 0, "x", 0, 10);
        assert_eq!(t.snapshot().total, 0);
    }

    #[test]
    fn reset_restarts_ids() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        t.record(0, "a", 0, 1);
        t.reset();
        let id = t.record(0, "b", 0, 1);
        assert_eq!(id, 1);
        assert_eq!(t.snapshot().total, 1);
    }
}
