//! CSV and file exporters for snapshots.
//!
//! [`to_csv`] is the single CSV serialiser for the whole workspace;
//! `rtm_core::experiments::to_csv` re-exports it so experiment drivers
//! and the observability exporters cannot drift apart. Span snapshots
//! additionally export as [`folded_stacks`] (the flamegraph collapsed
//! format: one `path value` line per stack) and as [`chrome_trace`]
//! (Chrome/Perfetto `trace_event` JSON, loadable in `about:tracing`).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::events::EventTraceSnapshot;
use crate::json::Json;
use crate::span::SpanTraceSnapshot;

/// Serialises rows of cells as RFC-4180-style CSV (quotes doubled,
/// cells containing commas/quotes/newlines quoted).
pub fn to_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .map(|cell| {
                if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

impl EventTraceSnapshot {
    /// Rows for the serving-layer queue events only, in a narrow
    /// schema (header included): enqueue/dispatch/complete/backpressure
    /// with blanks where a kind has no such field.
    pub fn queue_rows(&self) -> Vec<Vec<String>> {
        use crate::events::ShiftEvent;
        let mut rows = vec![vec![
            "seq".to_string(),
            "cycle".to_string(),
            "kind".to_string(),
            "id".to_string(),
            "group".to_string(),
            "queue_delay".to_string(),
            "service_cycles".to_string(),
        ]];
        for e in &self.events {
            if !e.event.is_queue_event() {
                continue;
            }
            let mut row = vec![
                e.seq.to_string(),
                e.cycle.to_string(),
                e.event.kind().to_string(),
            ];
            row.resize(7, String::new());
            match e.event {
                ShiftEvent::ReqEnqueued { id, group } => {
                    row[3] = id.to_string();
                    row[4] = group.to_string();
                }
                ShiftEvent::ReqDispatched {
                    id,
                    group,
                    queue_delay,
                } => {
                    row[3] = id.to_string();
                    row[4] = group.to_string();
                    row[5] = queue_delay.to_string();
                }
                ShiftEvent::ReqCompleted { id, service_cycles } => {
                    row[3] = id.to_string();
                    row[6] = service_cycles.to_string();
                }
                ShiftEvent::ReqBackpressure { group } => {
                    row[4] = group.to_string();
                }
                _ => unreachable!("filtered to queue events"),
            }
            rows.push(row);
        }
        rows
    }

    /// CSV rendering of [`Self::queue_rows`].
    pub fn queue_csv(&self) -> String {
        to_csv(&self.queue_rows())
    }
}

/// Renders a span snapshot in the flamegraph *collapsed stack* format:
/// one `root;child;leaf value` line per distinct stack, where the value
/// is the stack's total *self* cycles (time not covered by retained
/// children). Lines are sorted by path and zero-valued stacks are
/// omitted, so equal snapshots render byte-identically and the output
/// feeds `flamegraph.pl` / speedscope / `inferno` unchanged.
pub fn folded_stacks(snap: &SpanTraceSnapshot) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in &snap.spans {
        let cycles = snap.self_cycles(span);
        if cycles > 0 {
            *stacks.entry(snap.path_of(span)).or_insert(0) += cycles;
        }
    }
    let mut out = String::new();
    for (path, cycles) in stacks {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&cycles.to_string());
        out.push('\n');
    }
    out
}

/// Renders a span snapshot as Chrome `trace_event` JSON (complete `X`
/// events; 1 simulated cycle = 1 µs), loadable in `about:tracing` or
/// Perfetto. Span ids and parents ride along in `args`.
pub fn chrome_trace(snap: &SpanTraceSnapshot) -> Json {
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ns".to_string())),
        (
            "traceEvents",
            Json::Arr(
                snap.spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::Str(s.name.clone())),
                            ("ph", Json::Str("X".to_string())),
                            ("ts", Json::Num(s.start_cycle as f64)),
                            ("dur", Json::Num(s.duration() as f64)),
                            ("pid", Json::Num(0.0)),
                            ("tid", Json::Num(0.0)),
                            (
                                "args",
                                Json::obj(vec![
                                    ("id", Json::Num(s.id as f64)),
                                    ("parent", Json::Num(s.parent as f64)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes a JSON document to `path` in pretty form. `.csv` paths are
/// not special-cased here; callers pick the representation.
pub fn write_json(path: &Path, doc: &Json) -> io::Result<()> {
    std::fs::write(path, doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventTrace, ShiftEvent};
    use crate::span::SpanTrace;

    #[test]
    fn csv_quotes_special_cells() {
        let rows = vec![
            vec!["a".into(), "b,c".into()],
            vec!["say \"hi\"".into(), "plain".into()],
        ];
        assert_eq!(to_csv(&rows), "a,\"b,c\"\n\"say \"\"hi\"\"\",plain\n");
    }

    #[test]
    fn queue_csv_filters_to_queue_events() {
        let t = EventTrace::new();
        t.set_enabled(true);
        t.record(1, ShiftEvent::BackShift { steps: 2 });
        t.record(5, ShiftEvent::ReqEnqueued { id: 9, group: 3 });
        t.record(
            8,
            ShiftEvent::ReqDispatched {
                id: 9,
                group: 3,
                queue_delay: 3,
            },
        );
        t.record(
            20,
            ShiftEvent::ReqCompleted {
                id: 9,
                service_cycles: 12,
            },
        );
        t.record(21, ShiftEvent::ReqBackpressure { group: 3 });
        let csv = t.snapshot().queue_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + the four queue events; the BackShift is filtered.
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "seq,cycle,kind,id,group,queue_delay,service_cycles"
        );
        assert_eq!(lines[1], "1,5,ReqEnqueued,9,3,,");
        assert_eq!(lines[2], "2,8,ReqDispatched,9,3,3,");
        assert_eq!(lines[3], "3,20,ReqCompleted,9,,,12");
        assert_eq!(lines[4], "4,21,ReqBackpressure,,3,,");
    }

    fn sample_spans() -> SpanTraceSnapshot {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100);
        t.record(req, "queue", 0, 30);
        let d = t.record(req, "dispatch", 30, 95);
        t.record(d, "plan_shift", 30, 70);
        // Second request hitting the same stack shapes.
        let req2 = t.record(0, "request", 100, 140);
        t.record(req2, "queue", 100, 110);
        t.snapshot()
    }

    #[test]
    fn folded_stacks_aggregate_self_cycles_by_path() {
        let folded = folded_stacks(&sample_spans());
        let lines: Vec<&str> = folded.lines().collect();
        // Sorted by path; "request" self = (100-30-65) + (40-10).
        assert_eq!(
            lines,
            vec![
                "request 35",
                "request;dispatch 25",
                "request;dispatch;plan_shift 40",
                "request;queue 40",
            ]
        );
    }

    #[test]
    fn folded_stacks_omit_zero_frames() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let a = t.record(0, "outer", 0, 10);
        t.record(a, "inner", 0, 10); // covers outer fully
        let folded = folded_stacks(&t.snapshot());
        assert_eq!(folded, "outer;inner 10\n");
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let doc = chrome_trace(&sample_spans());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 6);
        let first = &events[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("request"));
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(first.get("dur").unwrap().as_u64(), Some(100));
        assert_eq!(
            first.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(0)
        );
        // Parseable by our own JSON reader (and thus well-formed).
        assert!(Json::parse(&doc.pretty()).is_ok());
    }
}
